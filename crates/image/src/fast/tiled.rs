//! 2-D tiled run-based labeling: a grid of rectangular tiles labeled
//! concurrently, seams merged hierarchically.
//!
//! This is the host's one decomposed engine. Its `T × 1` shape — `T` bands
//! of full-width strips — is the strip-and-merge layout of the parallel
//! two-pass CCL literature (Gupta et al., arXiv:1606.05973) and the host
//! analogue of the paper's scan-line decomposition: where the SLAP gives
//! every image *column* a PE and reconciles the per-column views with a
//! stitch (Algorithm CC step 3, `slap_cc::stitch`), each worker here owns a
//! band of image *rows* and the bands are reconciled with a seam pass. The
//! registry's `parallel` engine is exactly that shape. Strips stop scaling
//! when rows are short and thread counts grow — one full-width seam per
//! worker — so the grid generalizes to `tiles_y × tiles_x`, the shape Stout's
//! optimal mesh-labeling analysis prescribes (arXiv:1502.01435): seam work
//! then grows with the tile *perimeter*, not the image width, and the seams
//! merge in a balanced pairwise-doubling order so each level halves the
//! number of unmerged regions.
//!
//! Every tile builds straight into one run arena — the disjoint-range
//! layout of Gupta et al.'s parallel equivalence array — in **tile-major**
//! order: tile `k = i·tiles_x + j` owns the index range after tiles `0..k`,
//! row by row, and keeps its own row table of arena indices. With one tile
//! column this is row-major order, the sequential engine's layout. The
//! phases:
//!
//! 1. **count (on the calling thread)** — a popcount pass over each tile's
//!    masked row words fills its row table and so fixes its arena range;
//!    the arena and the tiles' scan buffers are sized here, so workers
//!    only write;
//! 2. **tile pass (parallel)** — each worker runs [`super::FastLabeler`]'s row
//!    kernel over its tiles, writing into their ranges with **global** run
//!    bounds and minima, and rebases their parents to arena indices;
//! 3. **hierarchical seam merge (sequential, tiny)** — vertical seams first
//!    (per band, a row's last run in the left tile meets the first run of
//!    the same or, at 8-conn, an adjacent row in the right tile), then
//!    full-width horizontal band seams (the facing rows, gathered across the
//!    band's tiles, go through [`for_each_adjacent_pair`]). Level ℓ of the
//!    pairwise-doubling order merges the boundaries at odd multiples of
//!    `2^ℓ`; each level's seam and union counts are recorded
//!    ([`TiledLabeler::seam_levels`]);
//! 4. **seam losers (sequential, `O(seam runs)`)** — the only nodes whose
//!    parent may cross a band are made final;
//! 5. **flatten + output (parallel per band)** — one ascending sweep over a
//!    band's adjacent tiles flattens every node and writes its run's labels;
//!    the fast engine's record fold then walks the arena once (on the
//!    calling thread) and leaves the component records in the grid.
//!
//! Corner cases the decomposition must not miss: a diagonal adjacency
//! straddling a vertical boundary is handled by the vertical seam's ±1-row
//! reach *within* the band, and one straddling a horizontal boundary —
//! including the four-corner point where four tiles meet — by the full-width
//! horizontal seam. The result is **bit-identical** to
//! [`super::fast_labels_conn`] and the BFS oracle for every image,
//! connectivity, tile shape, and thread count: labels are component minima,
//! which no decomposition can change.
//!
//! The out-of-core scheduler ([`super::ooc`]) reuses phases 1–4 through
//! `TiledLabeler::build_arena` to label one band of tiles at a time, and
//! flattens inside its own ascending band fold.

use super::{
    flatten_fill, fold_records, grow_arena, link_roots, EngineStats, LabelEngine, TileScan,
    TileStats, MIN_HALF,
};
use crate::bitmap::{for_each_adjacent_pair, Bitmap};
use crate::connectivity::Connectivity;
use crate::labels::LabelGrid;

/// Labels `img` under 4-connectivity on a 2×2 tile grid. Convenience wrapper
/// allocating a fresh grid and labeler; hot loops should hold a
/// [`TiledLabeler`] instead.
pub fn tiled_labels(img: &Bitmap, threads: usize) -> LabelGrid {
    tiled_labels_conn(img, Connectivity::Four, 2, 2, threads)
}

/// Labels `img` under an arbitrary adjacency convention on a
/// `tiles_y × tiles_x` grid with `threads` workers. Output is bit-identical
/// to [`super::fast_labels_conn`] for every tile shape and thread count.
pub fn tiled_labels_conn(
    img: &Bitmap,
    conn: Connectivity,
    tiles_y: usize,
    tiles_x: usize,
    threads: usize,
) -> LabelGrid {
    let mut out = LabelGrid::new_background(img.rows(), img.cols());
    TiledLabeler::new(tiles_y, tiles_x, threads).label_into(img, conn, &mut out);
    out
}

/// Per-level cost record of the hierarchical seam merge (see
/// [`TiledLabeler::seam_levels`]): how many seam boundaries the level
/// processed and how many union–find links actually joined two sets there.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeamLevel {
    /// Position in the schedule: vertical levels first, then horizontal.
    pub level: usize,
    /// `true` for vertical (column-boundary) seams, `false` for horizontal
    /// (full-width band) seams.
    pub vertical: bool,
    /// Seam segments processed: boundary × band for vertical levels, whole
    /// boundaries for horizontal ones.
    pub seams: usize,
    /// Effective unions (links that joined two distinct sets).
    pub unions: usize,
}

/// Reusable tiled labeler (see the module docs for the phases).
///
/// Every scratch structure — the run arena, the per-tile row tables and scan
/// buffers, the seam scratch — is kept between calls, so labeling a stream
/// of images grows an arena only when an image exceeds all previous highs.
/// Tile, chunk and band bounds are computed in place, so a call allocates
/// only for the worker threads of a phase of several jobs.
#[derive(Debug)]
pub struct TiledLabeler {
    /// Requested grid shape; a call clamps to `tiles_y.min(rows)` ×
    /// `tiles_x.min(cols)` so every tile is non-empty.
    tiles_y: usize,
    tiles_x: usize,
    /// Worker count for the parallel phases (≥ 1).
    threads: usize,
    /// Per-tile row tables and scan buffers, tile-major
    /// (`tiles[i * tiles_x + j]`).
    tiles: Vec<TileScan>,
    /// The run arena: tile `k` owns indices `tiles[k].base()..tiles[k].end()`,
    /// row by row. Only grows; the current frame's runs are a prefix.
    runs: Vec<u64>,
    /// The union–find arena beside it, packed `min_pos << 32 | parent`.
    node: Vec<u64>,
    /// Scratch words for horizontal seam adjacency.
    seam_and: Vec<u64>,
    /// The two facing rows of a horizontal seam, gathered across the band's
    /// tiles, and the arena index of each gathered run.
    seam_runs: [Vec<u64>; 2],
    seam_ix: [Vec<u32>; 2],
    /// Roots that lost a seam union — the nodes whose parent may cross a
    /// band, made final by phase 4.
    seam_losers: Vec<u32>,
    /// Root count each output worker observed in its band.
    band_roots: Vec<usize>,
    /// Cost accounting of the most recent hierarchical merge.
    levels: Vec<SeamLevel>,
    /// Tile count of the most recent call (stale tiles beyond it hold state
    /// from older, larger calls).
    last_ntiles: usize,
}

impl TiledLabeler {
    /// Creates a labeler for a `tiles_y × tiles_x` grid labeled by `threads`
    /// workers (all clamped to ≥ 1).
    pub fn new(tiles_y: usize, tiles_x: usize, threads: usize) -> Self {
        TiledLabeler {
            tiles_y: tiles_y.max(1),
            tiles_x: tiles_x.max(1),
            threads: threads.max(1),
            tiles: Vec::new(),
            runs: Vec::new(),
            node: Vec::new(),
            seam_and: Vec::new(),
            seam_runs: [Vec::new(), Vec::new()],
            seam_ix: [Vec::new(), Vec::new()],
            seam_losers: Vec::new(),
            band_roots: Vec::new(),
            levels: Vec::new(),
            last_ntiles: 0,
        }
    }

    /// Per-level costs of the most recent hierarchical seam merge (empty for
    /// a 1×1 grid).
    pub fn seam_levels(&self) -> &[SeamLevel] {
        &self.levels
    }

    /// The clamped grid shape for `img`: every tile must own at least one
    /// row and one column.
    fn effective_grid(&self, img: &Bitmap) -> (usize, usize) {
        (self.tiles_y.min(img.rows()), self.tiles_x.min(img.cols()))
    }

    /// Phases 1–4: afterwards every node's parent is either final
    /// (`component_min << 32 | root`) or a smaller index in its own band, so
    /// one ascending sweep per band flattens the arena. This is the
    /// band-labeling core the out-of-core scheduler drives once per band.
    pub(crate) fn build_arena(&mut self, img: &Bitmap, conn: Connectivity) {
        let (rows, cols) = (img.rows(), img.cols());
        let (ty, tx) = self.effective_grid(img);
        let ntiles = ty * tx;
        self.last_ntiles = ntiles;
        if self.tiles.len() < ntiles {
            self.tiles.resize_with(ntiles, TileScan::default);
        }
        // Even splits; the clamp guarantees every tile is non-empty.
        let rb = |i: usize| i * rows / ty;
        let cb = |j: usize| j * cols / tx;

        // Phase 1: tile `k` takes the arena range after tiles `0..k`.
        let mut total = 0usize;
        for (k, t) in self.tiles[..ntiles].iter_mut().enumerate() {
            let (i, j) = (k / tx, k % tx);
            total = t.count(img, rb(i)..rb(i + 1), cb(j)..cb(j + 1), total);
        }
        grow_arena(&mut self.runs, total);
        grow_arena(&mut self.node, total);

        // Phase 2: tiles are handed out in contiguous chunks (their areas are
        // within one row/column of equal, so chunks balance), each with its
        // arena range.
        let workers = self.threads.min(ntiles);
        let mut tiles_rest = &mut self.tiles[..ntiles];
        let mut runs_rest = &mut self.runs[..total];
        let mut node_rest = &mut self.node[..total];
        let chunks = (0..workers).map(|w| {
            let take = tiles_rest.len() / (workers - w);
            let (chunk, tt) = std::mem::take(&mut tiles_rest).split_at_mut(take);
            let len = chunk[take - 1].end() - chunk[0].base();
            let (runs, rt) = std::mem::take(&mut runs_rest).split_at_mut(len);
            let (node, nt) = std::mem::take(&mut node_rest).split_at_mut(len);
            (tiles_rest, runs_rest, node_rest) = (tt, rt, nt);
            (chunk, runs, node)
        });
        run_jobs(chunks, |(chunk, runs, node)| {
            let lo = chunk[0].base();
            for t in chunk {
                let (a, b) = (t.base() - lo, t.end() - lo);
                t.build(img, conn, &mut runs[a..b], &mut node[a..b]);
            }
        });

        // Phase 3: after level ℓ, runs of 2^(ℓ+1) tiles are connected.
        // Vertical seams go first: they link runs of one band, so every
        // parent they write stays in that band's flatten domain. The
        // full-width horizontal seams then also cover every diagonal
        // straddling a band boundary, four-corner points included.
        self.seam_losers.clear();
        self.levels.clear();
        for (vertical, n) in [(true, tx), (false, ty)] {
            for l in 0..schedule_levels(n) {
                let before = self.seam_losers.len();
                let mut seams = 0usize;
                for b in (1usize << l..n).step_by(2 << l) {
                    if vertical {
                        for i in 0..ty {
                            let k = i * tx + b;
                            vertical_seam_unions(
                                &mut self.node,
                                &self.runs,
                                &self.tiles[k - 1],
                                &self.tiles[k],
                                conn,
                                cb(b) as u64,
                                &mut self.seam_losers,
                            );
                        }
                        seams += ty;
                        continue;
                    }
                    let above = &self.tiles[(b - 1) * tx..b * tx];
                    let below = &self.tiles[b * tx..(b + 1) * tx];
                    let [prev_runs, cur_runs] = &mut self.seam_runs;
                    let [prev_ix, cur_ix] = &mut self.seam_ix;
                    gather_row(&self.runs, above, rb(b) - 1 - rb(b - 1), prev_runs, prev_ix);
                    gather_row(&self.runs, below, 0, cur_runs, cur_ix);
                    horizontal_seam_unions(
                        &mut self.node,
                        img,
                        rb(b),
                        conn,
                        (cur_runs, cur_ix),
                        (prev_runs, prev_ix),
                        &mut self.seam_and,
                        &mut self.seam_losers,
                    );
                    seams += 1;
                }
                self.levels.push(SeamLevel {
                    level: self.levels.len(),
                    vertical,
                    seams,
                    unions: self.seam_losers.len() - before,
                });
            }
        }

        // Phase 4: a loser's chain ends at a true root holding the component
        // minimum (link_roots keeps minima at survivors); writing that value
        // back along the path makes every cross-band parent final, so the
        // per-band sweeps never read another band's (concurrently mutated)
        // nodes.
        for &x in &self.seam_losers {
            let root = find_pure(&self.node, x);
            let final_val = self.node[root as usize];
            let mut y = x;
            while y != root {
                let p = self.node[y as usize] as u32;
                self.node[y as usize] = final_val;
                y = p;
            }
        }
    }

    /// The current frame's `(runs, node, tiles)` after [`Self::build_arena`]:
    /// the arena and the tiles whose row tables index it.
    pub(crate) fn arena(&mut self) -> (&[u64], &mut [u64], &[TileScan]) {
        let tiles = &self.tiles[..self.last_ntiles];
        let total = tiles.last().map_or(0, TileScan::end);
        (&self.runs[..total], &mut self.node[..total], tiles)
    }
}

impl LabelEngine for TiledLabeler {
    /// Every cell is written exactly once; each output worker counts the
    /// roots of its band as it sweeps. The component records are folded in
    /// one more pass over the runs ([`fold_records`]), which `out` then
    /// carries.
    fn label_into(&mut self, img: &Bitmap, conn: Connectivity, out: &mut LabelGrid) -> EngineStats {
        self.build_arena(img, conn);
        let (ty, tx) = self.effective_grid(img);
        let cols = img.cols();
        let tiles = &self.tiles[..ty * tx];
        let total = tiles[ty * tx - 1].end();

        // Phase 5: a band's tiles are adjacent in the arena, so each worker
        // owns one node range and one strip of the grid.
        out.reset_dims(img.rows(), cols);
        self.band_roots.clear();
        self.band_roots.resize(ty, 0);
        let mut node_rest = &mut self.node[..total];
        let mut cells_rest = out.cells_mut();
        let bands = tiles
            .chunks(tx)
            .zip(&mut self.band_roots)
            .map(|(band_tiles, roots)| {
                let len = band_tiles[tx - 1].end() - band_tiles[0].base();
                let (band, tail) = std::mem::take(&mut node_rest).split_at_mut(len);
                let cells = band_tiles[0].rows.len() * cols;
                let (strip, cells_tail) = std::mem::take(&mut cells_rest).split_at_mut(cells);
                (node_rest, cells_rest) = (tail, cells_tail);
                (band, band_tiles, strip, roots)
            });
        let runs = &self.runs;
        run_jobs(bands, |(band, tiles, strip, roots)| {
            // SAFETY: `build_arena` built these tiles into `band`, and phase
            // 4 left every parent pointing down within it or made it final;
            // `strip` is the band's rows of a `cols`-wide grid.
            *roots = unsafe { flatten_fill(band, tiles[0].base(), runs, tiles, strip, cols) };
        });
        let components = self.band_roots.iter().sum();
        fold_records(&mut self.node[..total], &self.runs, tiles, components, out);
        let mut tile_stats = TileStats::default();
        for t in tiles {
            tile_stats.accumulate(t.tiles);
        }
        EngineStats {
            components,
            runs: total,
            threads: self.threads,
            tiles: tile_stats,
            ..EngineStats::default()
        }
    }

    /// Total bytes of scratch capacity currently reserved across the arena,
    /// the per-tile row tables and scan buffers, and the seam scratch.
    fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.runs.capacity()
            + self.node.capacity()
            + self.seam_and.capacity()
            + self.seam_runs.iter().map(Vec::capacity).sum::<usize>())
            * size_of::<u64>()
            + (self.seam_ix.iter().map(Vec::capacity).sum::<usize>() + self.seam_losers.capacity())
                * size_of::<u32>()
            + self.band_roots.capacity() * size_of::<usize>()
            + self.levels.capacity() * size_of::<SeamLevel>()
            + self
                .tiles
                .iter()
                .map(TileScan::scratch_bytes)
                .sum::<usize>()
    }
}

/// Runs `work` over `jobs`: a phase of one job runs on the calling thread,
/// so a one-worker call — the out-of-core scheduler's 1 × 1 band, once per
/// band — spawns nothing; several jobs each get a scoped thread, none on the
/// caller. The run arena and every tile's scan buffers are sized on the
/// calling thread (phase 1), so workers only write.
///
/// Each thread is joined here rather than left to the scope, which waits
/// only for the closures: a thread still exiting when the next phase spawns
/// makes the C library set up a fresh stack, with bookkeeping on the
/// caller's heap. Measured on perfbench blobs, that left the heap unable to
/// shrink after a large free in one run of five (peak RSS 109 MB against
/// 98–99 MB).
fn run_jobs<T: Send>(jobs: impl IntoIterator<Item = T>, work: impl Fn(T) + Sync) {
    let mut jobs = jobs.into_iter().peekable();
    let Some(first) = jobs.next() else {
        return;
    };
    if jobs.peek().is_none() {
        return work(first);
    }
    let work = &work;
    std::thread::scope(|s| {
        let handles: Vec<_> = std::iter::once(first)
            .chain(jobs)
            .map(|job| s.spawn(move || work(job)))
            .collect();
        for h in handles {
            if let Err(panic) = h.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// Number of pairwise-doubling levels needed to merge `n` regions: the
/// smallest `L` with `2^L >= n`.
fn schedule_levels(n: usize) -> usize {
    let mut l = 0usize;
    while (1usize << l) < n {
        l += 1;
    }
    l
}

/// Unions runs across the vertical boundary at column `x` between two
/// adjacent tiles of one band: a row's last left-tile run, when it ends at
/// `x - 1`, joins the first right-tile run starting at `x` on the same row
/// (4-conn) and, with diagonal reach, on the rows above/below within the
/// band (8-conn; adjacencies leaving the band belong to the horizontal
/// seams). A run touching the boundary is always its tile row's last or
/// first, so each row costs O(1).
fn vertical_seam_unions(
    node: &mut [u64],
    runs: &[u64],
    left: &TileScan,
    right: &TileScan,
    conn: Connectivity,
    x: u64,
    losers: &mut Vec<u32>,
) {
    debug_assert!(x > 0);
    let h = left.row_runs.len() - 1;
    // The first run of the right tile's row `lr`, if it starts at `x`.
    let starting = |lr: usize| {
        let (lo, hi) = (right.row_runs[lr] as usize, right.row_runs[lr + 1] as usize);
        (lo < hi && runs[lo] >> 32 == x).then_some(lo)
    };
    for lr in 0..h {
        let (lo, hi) = (left.row_runs[lr] as usize, left.row_runs[lr + 1] as usize);
        if lo == hi || runs[hi - 1] & 0xffff_ffff != x - 1 {
            continue;
        }
        let reach = match conn {
            Connectivity::Four => lr..=lr,
            Connectivity::Eight => lr.saturating_sub(1)..=(lr + 1).min(h - 1),
        };
        for rr in reach {
            if let Some(r) = starting(rr) {
                union_pair(node, hi - 1, r, losers);
            }
        }
    }
}

/// Gathers local row `lr` of a band's `tiles` in column order into `out`,
/// with each run's arena index in `ix`. Runs clipped at a tile boundary are
/// coalesced back into the maximal row run, indexed by its first piece:
/// touching pieces always share a component once the band's vertical seams
/// have run, and the seam sweeps and the out-of-core frontier want maximal
/// runs.
pub(crate) fn gather_row(
    runs: &[u64],
    tiles: &[TileScan],
    lr: usize,
    out: &mut Vec<u64>,
    ix: &mut Vec<u32>,
) {
    out.clear();
    ix.clear();
    for t in tiles {
        for k in t.row_runs[lr]..t.row_runs[lr + 1] {
            let sb = runs[k as usize];
            if let Some(last) = out.last_mut() {
                if (*last & 0xffff_ffff) + 1 == sb >> 32 {
                    *last = (*last & MIN_HALF) | (sb & 0xffff_ffff);
                    continue;
                }
            }
            out.push(sb);
            ix.push(k);
        }
    }
}

/// Finds both runs' roots and links them across a seam.
#[inline]
fn union_pair(node: &mut [u64], a: usize, b: usize, losers: &mut Vec<u32>) {
    let (ra, rb) = (find_pure(node, a as u32), find_pure(node, b as u32));
    link_seam(node, ra, rb, losers);
}

/// Links roots `ra` and `rb` across a seam, recording the loser for phase 4;
/// returns the survivor.
#[inline]
fn link_seam(node: &mut [u64], ra: u32, rb: u32, losers: &mut Vec<u32>) -> u32 {
    if ra != rb {
        losers.push(ra.max(rb));
    }
    link_roots(node, ra, rb)
}

/// Read-only find over the packed nodes. Seam unions deliberately do **not**
/// path-halve: halving could rewrite a non-root node's parent onto a
/// cross-band ancestor, breaking the phase-4 invariant that only recorded
/// seam losers carry cross-band parents. Chains are at most a few seam links
/// long (one per band a component spans), so pure finds stay cheap.
fn find_pure(node: &[u64], mut x: u32) -> u32 {
    loop {
        let p = node[x as usize] as u32;
        if p == x {
            return x;
        }
        x = p;
    }
}

/// Unions every pair of runs touching across the full-width seam between
/// rows `y - 1` and `y` under `conn`; `cur` and `prev` are the two rows'
/// gathered runs with their arena indices ([`gather_row`]). Each row was
/// already unioned within its own band, so both sides need a find; each
/// root that loses a link is appended to `losers` for phase 4.
#[allow(clippy::too_many_arguments)]
fn horizontal_seam_unions(
    node: &mut [u64],
    img: &Bitmap,
    y: usize,
    conn: Connectivity,
    (cur, cur_ix): (&[u64], &[u32]),
    (prev, prev_ix): (&[u64], &[u32]),
    and_buf: &mut Vec<u64>,
    losers: &mut Vec<u32>,
) {
    // Cache the lower run's surviving root across its pairs: one find per
    // run, not per pair (link_seam returns the survivor).
    let mut last_c = usize::MAX;
    let mut croot = 0u32;
    for_each_adjacent_pair(
        conn,
        img.row_words(y),
        img.row_words(y - 1),
        cur,
        prev,
        and_buf,
        |c, q| {
            if c != last_c {
                last_c = c;
                croot = find_pure(node, cur_ix[c]);
            }
            let rq = find_pure(node, prev_ix[q]);
            croot = link_seam(node, croot, rq, losers);
        },
    );
}

/// The retired 8-connectivity seam union: a two-pointer join of the facing
/// rows' run lists with one column of diagonal reach. Kept only to
/// cross-check [`horizontal_seam_unions`] — the word-level sweep must
/// produce the identical unions in the identical order.
#[cfg(test)]
fn seam_union_eight_two_pointer(
    node: &mut [u64],
    runs: &[u64],
    cur: std::ops::Range<usize>,
    prev: std::ops::Range<usize>,
    losers: &mut Vec<u32>,
) {
    let mut p = prev.start;
    for c in cur {
        let sb = runs[c];
        let aw = (sb >> 32).saturating_sub(1);
        let bw = (sb & 0xffff_ffff) + 1;
        while p < prev.end && (runs[p] & 0xffff_ffff) < aw {
            p += 1;
        }
        let mut q = p;
        let mut root = find_pure(node, c as u32);
        while q < prev.end && (runs[q] >> 32) <= bw {
            root = link_seam(node, root, find_pure(node, q as u32), losers);
            q += 1;
        }
        // The last overlapping run may also touch the next run of the lower
        // row; step back so it is reconsidered.
        if q > p {
            p = q - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fast::{fast_labels_conn, FastLabeler};
    use crate::gen;
    use crate::oracle::bfs_labels_conn;

    const SHAPES: &[(usize, usize)] = &[(1, 2), (2, 1), (2, 2), (3, 3), (4, 4), (1, 8), (8, 1)];

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
            "####\n....\n####\n####\n",
        ] {
            let img = Bitmap::from_art(art);
            for conn in [Connectivity::Four, Connectivity::Eight] {
                for &(ty, tx) in SHAPES {
                    assert_eq!(
                        tiled_labels_conn(&img, conn, ty, tx, 3),
                        fast_labels_conn(&img, conn),
                        "tiles {ty}x{tx} conn={conn:?} art:\n{art}"
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
                for &(ty, tx) in SHAPES {
                    assert_eq!(
                        tiled_labels_conn(&img, conn, ty, tx, 4),
                        reference,
                        "workload {name} tiles {ty}x{tx} conn={conn:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_oracle_on_word_boundary_widths_and_seam_columns() {
        // Widths chosen so vertical seams fall on, next to, and far from
        // 64-bit word boundaries.
        for cols in [63usize, 64, 65, 127, 128, 130, 191] {
            let img = gen::uniform_random(37, cols, 0.5, cols as u64);
            for conn in [Connectivity::Four, Connectivity::Eight] {
                for &(ty, tx) in SHAPES {
                    assert_eq!(
                        tiled_labels_conn(&img, conn, ty, tx, 4),
                        bfs_labels_conn(&img, conn),
                        "cols={cols} tiles {ty}x{tx} conn={conn:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn four_corner_diagonals_union_across_the_tile_cross() {
        // A 2×2 grid over a 4×4 image puts the tile cross at (2, 2); the two
        // pixels at (1,1) and (2,2) touch only diagonally, straddling both
        // seams at once — the horizontal seam must catch it.
        let mut img = Bitmap::new(4, 4);
        img.set(1, 1, true);
        img.set(2, 2, true);
        assert_eq!(
            tiled_labels_conn(&img, Connectivity::Eight, 2, 2, 4).component_count(),
            1
        );
        assert_eq!(
            tiled_labels_conn(&img, Connectivity::Four, 2, 2, 4).component_count(),
            2
        );
        // The anti-diagonal orientation crosses the corner the other way.
        let mut anti = Bitmap::new(4, 4);
        anti.set(1, 2, true);
        anti.set(2, 1, true);
        assert_eq!(
            tiled_labels_conn(&anti, Connectivity::Eight, 2, 2, 4).component_count(),
            1
        );
    }

    #[test]
    fn components_spanning_every_tile_collapse_to_one_label() {
        // A frame around the image touches all tiles of any grid.
        let n = 24usize;
        let mut img = Bitmap::new(n, n);
        for k in 0..n {
            img.set(0, k, true);
            img.set(n - 1, k, true);
            img.set(k, 0, true);
            img.set(k, n - 1, true);
        }
        for &(ty, tx) in SHAPES {
            for conn in [Connectivity::Four, Connectivity::Eight] {
                let l = tiled_labels_conn(&img, conn, ty, tx, 4);
                assert_eq!(l.component_count(), 1, "tiles {ty}x{tx} conn={conn:?}");
                assert_eq!(l, fast_labels_conn(&img, conn));
            }
        }
    }

    #[test]
    fn strips_with_more_threads_than_rows_degrade_gracefully() {
        let img = gen::uniform_random(3, 50, 0.5, 7);
        for conn in [Connectivity::Four, Connectivity::Eight] {
            assert_eq!(
                tiled_labels_conn(&img, conn, 64, 1, 64),
                fast_labels_conn(&img, conn)
            );
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        // A 0 × 0 grid on 0 workers labels as one tile on one worker: no
        // seam level runs.
        let mut labeler = TiledLabeler::new(0, 0, 0);
        let img = gen::by_name("maze", 16, 3).unwrap();
        let mut out = LabelGrid::new_background(1, 1);
        let stats = labeler.label_into(&img, Connectivity::Four, &mut out);
        assert_eq!(out, fast_labels_conn(&img, Connectivity::Four));
        assert_eq!(stats.threads, 1);
        assert!(labeler.seam_levels().is_empty());
    }

    #[test]
    fn more_tiles_than_pixels_degrades_gracefully() {
        let img = gen::uniform_random(3, 3, 0.5, 7);
        for conn in [Connectivity::Four, Connectivity::Eight] {
            assert_eq!(
                tiled_labels_conn(&img, conn, 64, 64, 8),
                fast_labels_conn(&img, conn)
            );
        }
    }

    #[test]
    fn seam_levels_follow_the_pairwise_doubling_schedule() {
        let img = gen::by_name("maze", 48, 5).unwrap();
        let mut lab = TiledLabeler::new(4, 4, 2);
        let mut out = LabelGrid::new_background(1, 1);
        lab.label_into(&img, Connectivity::Four, &mut out);
        let levels = lab.seam_levels();
        // 4 columns of tiles: 2 vertical levels (boundaries {1,3} then {2}),
        // each boundary crossing all 4 bands; 4 bands: 2 horizontal levels
        // (boundaries {1,3} then {2}).
        let shape: Vec<(usize, bool, usize)> = levels
            .iter()
            .map(|l| (l.level, l.vertical, l.seams))
            .collect();
        assert_eq!(
            shape,
            vec![(0, true, 8), (1, true, 4), (2, false, 2), (3, false, 1)]
        );
        // Every merge the sequential engine finds must happen at some level:
        // total unions = runs - components.
        let total_unions: usize = levels.iter().map(|l| l.unions).sum();
        let intra: usize = {
            // unions inside tiles = runs - roots before seams; recompute via
            // component counts instead: seam unions = tile components summed
            // minus final components.
            let mut parts = 0usize;
            for i in 0..4usize {
                for j in 0..4usize {
                    let (r0, r1) = (i * 48 / 4, (i + 1) * 48 / 4);
                    let (c0, c1) = (j * 48 / 4, (j + 1) * 48 / 4);
                    let mut tile = Bitmap::new(r1 - r0, c1 - c0);
                    for r in r0..r1 {
                        for c in c0..c1 {
                            if img.get(r, c) {
                                tile.set(r - r0, c - c0, true);
                            }
                        }
                    }
                    parts += fast_labels_conn(&tile, Connectivity::Four).component_count();
                }
            }
            parts
        };
        assert_eq!(
            total_unions,
            intra - out.component_count(),
            "hierarchical merge must perform exactly the cross-tile unions"
        );
    }

    #[test]
    fn reused_tiled_labeler_leaves_no_stale_state() {
        let mut labeler = TiledLabeler::new(2, 2, 4);
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
    fn a_warm_labeler_survives_clamped_grid_shape_changes() {
        // 64 × 2 clamps to 3 × 2 on a 3-row frame and stays 64 × 2 on a
        // 200-row one: the tile count and every tile's window change between
        // calls, and the small frame coming back must not grow the scratch.
        let mut labeler = TiledLabeler::new(64, 2, 2);
        let mut grid = LabelGrid::new_background(1, 1);
        let small = gen::uniform_random(3, 50, 0.5, 7);
        let big = gen::uniform_random(200, 200, 0.5, 8);
        let mut warm_bytes = 0;
        for (i, img) in [&small, &big, &small].into_iter().enumerate() {
            for conn in [Connectivity::Four, Connectivity::Eight] {
                let stats = labeler.label_into(img, conn, &mut grid);
                assert_eq!(grid, fast_labels_conn(img, conn), "call {i} conn={conn:?}");
                assert_eq!(stats.components, grid.component_count());
            }
            if i == 1 {
                warm_bytes = labeler.scratch_bytes();
            }
        }
        assert!(labeler.scratch_bytes() <= warm_bytes);
    }

    #[test]
    fn a_warm_session_holds_one_run_arena() {
        // Tiles build straight into one arena, so a warm tiled session holds
        // what a warm fast labeler holds, up to 5%, plus only what tile
        // columns add by construction: the runs they clip at their
        // boundaries (16 bytes each) and a row table per tile (4 bytes per
        // row per extra tile column, one sentinel per extra tile).
        for name in ["random50", "blobs"] {
            for n in [512usize, 1024] {
                let img = gen::by_name(name, n, 1).unwrap();
                let mut out = LabelGrid::new_background(1, 1);
                let mut fast = FastLabeler::new();
                let mut fast_runs = 0;
                for conn in [Connectivity::Four, Connectivity::Eight] {
                    fast_runs = fast.label_into(&img, conn, &mut out).runs;
                }
                for (ty, tx) in [(1usize, 1usize), (2, 1), (1, 2), (2, 2), (4, 1)] {
                    let mut tiled = TiledLabeler::new(ty, tx, 2);
                    let mut tiled_runs = 0;
                    for conn in [Connectivity::Four, Connectivity::Eight] {
                        tiled_runs = tiled.label_into(&img, conn, &mut out).runs;
                    }
                    let clipped = tiled_runs - fast_runs;
                    let row_tables = (tx - 1) * n + ty * tx - 1;
                    let allowance = 16 * clipped + 4 * row_tables;
                    assert!(
                        tiled.scratch_bytes() as f64
                            <= 1.05 * fast.scratch_bytes() as f64 + allowance as f64,
                        "{name} {n}² {ty}x{tx}: tiled {} B, fast {} B, allowance {allowance} B",
                        tiled.scratch_bytes(),
                        fast.scratch_bytes()
                    );
                }
            }
        }
    }

    #[test]
    fn single_row_and_single_column_images_do_not_panic() {
        for (rows, cols) in [(1usize, 200usize), (200, 1), (1, 1), (2, 2)] {
            let img = gen::uniform_random(rows, cols, 0.5, 11);
            for conn in [Connectivity::Four, Connectivity::Eight] {
                assert_eq!(
                    tiled_labels_conn(&img, conn, 4, 4, 4),
                    fast_labels_conn(&img, conn),
                    "{rows}x{cols} conn={conn:?}"
                );
            }
        }
    }

    #[test]
    fn word_level_eight_seam_matches_the_retired_two_pointer_path() {
        // Build a two-row run arena directly and drive both seam-union
        // implementations over it: the word-level dilated-AND sweep must
        // perform the identical links in the identical order — same node
        // array, same loser log — as the retired two-pointer join.
        for case in 0u64..200 {
            let density = 0.05 + 0.9 * (case % 10) as f64 / 10.0;
            let img = gen::uniform_random(2, 131, density, case + 1);
            let mut runs = Vec::new();
            let mut node = Vec::new();
            for r in 0..2 {
                img.for_each_row_run(r, |a, b| {
                    let min = u64::from(a) * 2 + r as u64;
                    node.push((min << 32) | runs.len() as u64);
                    runs.push((u64::from(a) << 32) | u64::from(b));
                });
            }
            let split = runs.len() - img.count_row_runs(1);
            let ix: Vec<u32> = (0..runs.len() as u32).collect();

            let mut node_tp = node.clone();
            let mut losers_tp = Vec::new();
            seam_union_eight_two_pointer(
                &mut node_tp,
                &runs,
                split..runs.len(),
                0..split,
                &mut losers_tp,
            );
            let mut losers = Vec::new();
            horizontal_seam_unions(
                &mut node,
                &img,
                1,
                Connectivity::Eight,
                (&runs[split..], &ix[split..]),
                (&runs[..split], &ix[..split]),
                &mut Vec::new(),
                &mut losers,
            );
            assert_eq!(node, node_tp, "case {case}");
            assert_eq!(losers, losers_tp, "case {case}");
        }
    }

    #[test]
    fn seam_eight_backstep_shares_one_upper_run_across_adjacent_lower_runs() {
        // Regression for the `p = q - 1` backstep in the diagonal-pair
        // enumeration (inside `for_each_diagonal_pair`): two adjacent
        // lower-row runs each touch the single upper-row run only diagonally
        // (through column 2), so after the first lower run consumes the
        // upper run the cursor must step back for the second. A 2×1 grid
        // puts the seam exactly between the two rows.
        let img = Bitmap::from_art(
            "..#..\n\
             ##.##\n",
        );
        let l8 = tiled_labels_conn(&img, Connectivity::Eight, 2, 1, 2);
        assert_eq!(l8, fast_labels_conn(&img, Connectivity::Eight));
        assert_eq!(l8.component_count(), 1, "diagonals bridge all three runs");
        let l4 = tiled_labels_conn(&img, Connectivity::Four, 2, 1, 2);
        assert_eq!(l4, fast_labels_conn(&img, Connectivity::Four));
        assert_eq!(l4.component_count(), 3, "no bridge under 4-connectivity");
        // The mirrored orientation exercises the backstep from the other
        // side, and a longer seam chains repeated backsteps.
        let chain = Bitmap::from_art(
            "##.##.##.##\n\
             ..#..#..#..\n",
        );
        for conn in [Connectivity::Four, Connectivity::Eight] {
            assert_eq!(
                tiled_labels_conn(&chain, conn, 2, 1, 2),
                fast_labels_conn(&chain, conn),
                "chain conn={conn:?}"
            );
        }
        assert_eq!(
            tiled_labels_conn(&chain, Connectivity::Eight, 2, 1, 2).component_count(),
            1
        );
    }
}
