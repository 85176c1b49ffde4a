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
//! number of unmerged regions. The phases:
//!
//! 1. **tile pass (parallel)** — each worker runs the word-parallel
//!    run-extraction + union–find pass over its own rectangular window
//!    ([`FastLabeler`]'s column-window variant, which for a full-width
//!    window is the row-range pass itself), with *local* run indices but
//!    **global** run bounds and minimum-position payloads;
//! 2. **relocation (parallel per band)** — tiles are interleaved row-by-row
//!    into one global arena laid out exactly like the sequential engine's
//!    (runs in (row, column) order, a global per-row run table), remapping
//!    each tile-local parent through a per-tile index map. A band of one
//!    tile is already in global order, so it is a straight copy with its
//!    parents shifted by the band base;
//! 3. **hierarchical seam merge (sequential, tiny)** — vertical seams first
//!    (per band, runs clipped at a tile's column boundary are looked up by
//!    binary search and unioned across it, with diagonal reach at 8-conn),
//!    then full-width horizontal band seams (the crate's row-to-row
//!    adjacency sweep, [`for_each_adjacent_pair`]). Boundaries are processed
//!    in pairwise-doubling order — level ℓ merges the boundaries at odd
//!    multiples of `2^ℓ` — and each level's seam count and union count are
//!    recorded ([`TiledLabeler::seam_levels`]);
//! 4. **flatten (parallel per band)** — a sequential `O(seam runs)` pre-pass
//!    finalizes the recorded seam losers (the only nodes whose parent may
//!    cross a band), then each band's ascending sweep reads only its own
//!    nodes;
//! 5. **output (parallel per band)** — run-at-a-time label fills into
//!    disjoint row bands of the [`LabelGrid`].
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
//! `TiledLabeler::build_arena` to label one band of tiles at a time.

use super::{fill_label_row, link_roots, FastLabeler, MIN_HALF};
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
/// Every scratch structure — one [`FastLabeler`] per tile, the per-tile
/// index maps, the global arenas — is kept between calls, so labeling a
/// stream of images allocates only when an image exceeds all previous highs.
#[derive(Debug)]
pub struct TiledLabeler {
    /// Requested grid shape; a call clamps to `tiles_y.min(rows)` ×
    /// `tiles_x.min(cols)` so every tile is non-empty.
    tiles_y: usize,
    tiles_x: usize,
    /// Worker count for the parallel phases (≥ 1).
    threads: usize,
    /// Per-tile scratch labelers, row-major (`tiles[i * tiles_x + j]`).
    tiles: Vec<FastLabeler>,
    /// Per-tile local→global run index maps, filled during relocation so
    /// tile-local parent pointers can be remapped.
    l2g: Vec<Vec<u32>>,
    /// Global run bounds in (row, column) order — the same layout the
    /// sequential engine produces, which is what makes the row-wise seam
    /// machinery and the output sweep reusable verbatim.
    runs: Vec<u64>,
    /// Global union–find arena, packed `min_pos << 32 | parent`.
    node: Vec<u64>,
    /// Global index of the first run of each image row, plus a sentinel.
    row_runs: Vec<u32>,
    /// Scratch words for horizontal seam adjacency.
    seam_and: Vec<u64>,
    /// Roots that lost a seam union — the nodes whose parent may cross a
    /// band, finalized by the flatten pre-pass.
    seam_losers: Vec<u32>,
    /// Scratch path for the pre-pass root chases.
    chase: Vec<u32>,
    /// Root count each flatten worker observed in its band.
    band_roots: Vec<usize>,
    /// Cost accounting of the most recent hierarchical merge.
    levels: Vec<SeamLevel>,
    /// Whether the most recent call took the tiled path (`false`: the
    /// sequential delegate in `tiles[0]` holds the run/node state).
    last_tiled: bool,
    /// Tile-worker count of the most recent call (stale workers beyond it
    /// hold state from older, larger calls).
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
            l2g: Vec::new(),
            runs: Vec::new(),
            node: Vec::new(),
            row_runs: Vec::new(),
            seam_and: Vec::new(),
            seam_losers: Vec::new(),
            chase: Vec::new(),
            band_roots: Vec::new(),
            levels: Vec::new(),
            last_tiled: false,
            last_ntiles: 0,
        }
    }

    /// The grid shape requested at construction, `(tiles_y, tiles_x)`.
    pub fn tiles(&self) -> (usize, usize) {
        (self.tiles_y, self.tiles_x)
    }

    /// The worker count requested at construction.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of runs extracted by the most recent labeling call.
    pub fn last_runs(&self) -> usize {
        if self.last_tiled {
            self.runs.len()
        } else {
            self.tiles.first().map_or(0, FastLabeler::last_runs)
        }
    }

    /// Number of components found by the most recent labeling call. O(band
    /// count): each flatten worker counts its own roots as it sweeps.
    pub fn last_components(&self) -> usize {
        if self.last_tiled {
            self.band_roots.iter().sum()
        } else {
            self.tiles.first().map_or(0, FastLabeler::last_components)
        }
    }

    /// Tile classification counts of the most recent labeling call, summed
    /// over the tile workers that participated (see [`super::TileStats`];
    /// the hierarchical seam merge classifies no tiles of its own).
    pub fn last_tile_stats(&self) -> super::TileStats {
        let mut total = super::TileStats::default();
        for lab in &self.tiles[..self.last_ntiles.min(self.tiles.len())] {
            total.accumulate(lab.last_tile_stats());
        }
        total
    }

    /// Per-level costs of the most recent hierarchical seam merge (empty for
    /// calls that took the sequential delegate).
    pub fn seam_levels(&self) -> &[SeamLevel] {
        &self.levels
    }

    /// Total bytes of scratch capacity currently reserved across the global
    /// arenas and every per-tile labeler — the session's high-water mark.
    pub fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        self.runs.capacity() * size_of::<u64>()
            + self.node.capacity() * size_of::<u64>()
            + self.row_runs.capacity() * size_of::<u32>()
            + self.seam_and.capacity() * size_of::<u64>()
            + self.seam_losers.capacity() * size_of::<u32>()
            + self.chase.capacity() * size_of::<u32>()
            + self.band_roots.capacity() * size_of::<usize>()
            + self.levels.capacity() * size_of::<SeamLevel>()
            + self
                .l2g
                .iter()
                .map(|m| m.capacity() * size_of::<u32>())
                .sum::<usize>()
            + self
                .tiles
                .iter()
                .map(FastLabeler::scratch_bytes)
                .sum::<usize>()
    }

    /// Labels `img` into `out` (re-dimensioned; every cell is written exactly
    /// once). A degenerate 1×1 grid delegates to the sequential
    /// [`FastLabeler`] hot path.
    pub fn label_into(&mut self, img: &Bitmap, conn: Connectivity, out: &mut LabelGrid) {
        let (ty, tx) = self.effective_grid(img);
        if self.tiles.is_empty() {
            self.tiles.push(FastLabeler::new());
        }
        if ty * tx <= 1 {
            self.last_tiled = false;
            self.last_ntiles = 1;
            self.levels.clear();
            self.tiles[0].label_into(img, conn, out);
            return;
        }
        self.build_arena(img, conn);

        // Phase 5: write labels, parallel over disjoint row bands. After the
        // flatten every node holds `component_min << 32 | root`.
        let rows = img.rows();
        let cols = img.cols();
        let rb: Vec<usize> = (0..=ty).map(|i| i * rows / ty).collect();
        out.reset_dims(rows, cols);
        let bands = out.strip_rows_mut(&rb);
        let (runs, node, row_runs) = (&self.runs, &self.node, &self.row_runs);
        run_jobs(bands.into_iter().enumerate(), |(i, band)| {
            let (lo, hi) = (rb[i], rb[i + 1]);
            for r in lo..hi {
                let (klo, khi) = (row_runs[r] as usize, row_runs[r + 1] as usize);
                fill_label_row(
                    &mut band[(r - lo) * cols..(r - lo + 1) * cols],
                    runs[klo..khi]
                        .iter()
                        .zip(&node[klo..khi])
                        .map(|(&sb, &n)| (sb, (n >> 32) as u32)),
                );
            }
        });
    }

    /// The clamped grid shape for `img`: every tile must own at least one
    /// row and one column.
    fn effective_grid(&self, img: &Bitmap) -> (usize, usize) {
        (self.tiles_y.min(img.rows()), self.tiles_x.min(img.cols()))
    }

    /// Phases 1–4 without the output sweep: afterwards [`Self::arena`]
    /// exposes the global run table in (row, column) order with every
    /// union–find node flattened to `component_min << 32 | root`. This is
    /// the band-labeling core the out-of-core scheduler drives once per
    /// band; unlike [`Self::label_into`] it always takes the tiled path
    /// (a 1×1 grid is simply a zero-seam merge).
    pub(crate) fn build_arena(&mut self, img: &Bitmap, conn: Connectivity) {
        let rows = img.rows();
        let cols = img.cols();
        let (ty, tx) = self.effective_grid(img);
        let ntiles = ty * tx;
        self.last_tiled = true;
        self.last_ntiles = ntiles;
        while self.tiles.len() < ntiles {
            self.tiles.push(FastLabeler::new());
        }
        while self.l2g.len() < ntiles {
            self.l2g.push(Vec::new());
        }
        // Even splits; the clamp guarantees every tile is non-empty.
        let rb: Vec<usize> = (0..=ty).map(|i| i * rows / ty).collect();
        let cb: Vec<usize> = (0..=tx).map(|j| j * cols / tx).collect();

        // Phase 1: per-tile run extraction + intra-tile unions, parallel.
        // Tiles are handed out in contiguous chunks (their areas are within
        // one row/column of equal, so chunks balance).
        let workers = self.threads.min(ntiles);
        let mut chunks = Vec::with_capacity(workers);
        let mut rest = &mut self.tiles[..ntiles];
        let mut k0 = 0usize;
        for w in 0..workers {
            let take = (ntiles - k0) / (workers - w);
            let (chunk, tail) = rest.split_at_mut(take);
            rest = tail;
            chunks.push((k0, chunk));
            k0 += take;
        }
        let (rb, cb) = (&rb, &cb);
        run_jobs(chunks, |(base_k, chunk)| {
            for (off, lab) in chunk.iter_mut().enumerate() {
                let k = base_k + off;
                let (i, j) = (k / tx, k % tx);
                lab.build_runs_window(img, conn, rb[i], rb[i + 1], cb[j], cb[j + 1]);
            }
        });

        // Global row → run-range table: row `r`'s runs are the tiles of its
        // band interleaved in column order, so the global arena is laid out
        // exactly as the sequential engine would lay it out.
        self.row_runs.clear();
        self.row_runs.reserve(rows + 1);
        let mut band_base = Vec::with_capacity(ty + 1);
        band_base.push(0usize);
        let mut total = 0usize;
        for i in 0..ty {
            for r in rb[i]..rb[i + 1] {
                self.row_runs
                    .push(u32::try_from(total).expect("run count exceeds u32"));
                let lr = r - rb[i];
                for j in 0..tx {
                    let t = &self.tiles[i * tx + j];
                    total += (t.row_runs[lr + 1] - t.row_runs[lr]) as usize;
                }
            }
            band_base.push(total);
        }
        // Relocation rewrites the parent half of packed
        // `min_pos << 32 | parent` words; a parent index at or above
        // 2^32 - 1 would carry into (and silently corrupt) the `min_pos`
        // half. It can only fire if the LabelGrid pixel-count assertion is
        // ever relaxed: the run count never exceeds the pixel count.
        assert!(
            total < u32::MAX as usize,
            "{total} runs overflow the packed u32 parent index space"
        );
        self.row_runs.push(total as u32);

        // Phase 2: relocate tiles into the global arenas, parallel over
        // bands (a band owns a contiguous global index range and its own
        // tiles). A tile-local parent always points to a smaller local
        // index, and local index order is (row, column) order, so the
        // per-tile map entry for a parent is already written when its child
        // is relocated. A band of one tile skips the maps: its local order
        // is the global order; a grid of one tile is swapped in, not copied.
        if ntiles == 1 {
            std::mem::swap(&mut self.runs, &mut self.tiles[0].runs);
            std::mem::swap(&mut self.node, &mut self.tiles[0].node);
        } else {
            if tx > 1 {
                for (k, map) in self.l2g[..ntiles].iter_mut().enumerate() {
                    map.clear();
                    map.resize(self.tiles[k].runs.len(), 0);
                }
            }
            self.runs.clear();
            self.runs.resize(total, 0);
            self.node.clear();
            self.node.resize(total, 0);
            let mut bands = Vec::with_capacity(ty);
            let mut runs_rest = &mut self.runs[..];
            let mut node_rest = &mut self.node[..];
            let mut l2g_rest = &mut self.l2g[..ntiles];
            let mut tiles_rest = &self.tiles[..ntiles];
            for i in 0..ty {
                let band_len = band_base[i + 1] - band_base[i];
                let (runs_dst, rr) = runs_rest.split_at_mut(band_len);
                let (node_dst, nr) = node_rest.split_at_mut(band_len);
                let (l2g_band, lr2) = l2g_rest.split_at_mut(tx);
                let (tiles_band, tr2) = tiles_rest.split_at(tx);
                (runs_rest, node_rest, l2g_rest, tiles_rest) = (rr, nr, lr2, tr2);
                bands.push((i, runs_dst, node_dst, l2g_band, tiles_band));
            }
            run_jobs(bands, |(i, runs_dst, node_dst, l2g_band, tiles_band)| {
                let gbase = band_base[i];
                if let [tile] = tiles_band {
                    // The overflow guard above makes the packed addition touch
                    // only the parent half.
                    runs_dst.copy_from_slice(&tile.runs);
                    for (dst, &n) in node_dst.iter_mut().zip(&tile.node) {
                        *dst = n + gbase as u64;
                    }
                    return;
                }
                let mut g = 0usize;
                for lr in 0..rb[i + 1] - rb[i] {
                    for (j, tile) in tiles_band.iter().enumerate() {
                        let (klo, khi) =
                            (tile.row_runs[lr] as usize, tile.row_runs[lr + 1] as usize);
                        for k in klo..khi {
                            l2g_band[j][k] = (gbase + g) as u32;
                            runs_dst[g] = tile.runs[k];
                            let n = tile.node[k];
                            node_dst[g] =
                                (n & MIN_HALF) | u64::from(l2g_band[j][n as u32 as usize]);
                            g += 1;
                        }
                    }
                }
                debug_assert_eq!(g, runs_dst.len());
            });
        }

        // Phase 3: hierarchical seam merge. Level ℓ of the pairwise-doubling
        // schedule merges the boundaries at odd multiples of 2^ℓ — after it,
        // runs of 2^(ℓ+1) tiles are connected. Vertical seams go first: they
        // link runs of one band, so every parent they write stays inside
        // that band's flatten domain. Then the full-width horizontal band
        // seams, which also cover every diagonal straddling a band boundary
        // — including the four-corner points.
        self.seam_losers.clear();
        self.levels.clear();
        let mut level = 0usize;
        for l in 0..schedule_levels(tx) {
            let before = self.seam_losers.len();
            let mut seams = 0usize;
            let (half, step) = (1usize << l, 1usize << (l + 1));
            let mut j = half;
            while j < tx {
                let x = cb[j] as u64;
                for i in 0..ty {
                    seams += 1;
                    vertical_seam_unions(
                        &mut self.node,
                        &self.runs,
                        &self.row_runs,
                        conn,
                        x,
                        rb[i],
                        rb[i + 1],
                        &mut self.seam_losers,
                    );
                }
                j += step;
            }
            self.levels.push(SeamLevel {
                level,
                vertical: true,
                seams,
                unions: self.seam_losers.len() - before,
            });
            level += 1;
        }
        for l in 0..schedule_levels(ty) {
            let before = self.seam_losers.len();
            let mut seams = 0usize;
            let (half, step) = (1usize << l, 1usize << (l + 1));
            let mut i = half;
            while i < ty {
                seams += 1;
                horizontal_seam_unions(
                    &mut self.node,
                    &self.runs,
                    &self.row_runs,
                    img,
                    rb[i],
                    conn,
                    &mut self.seam_and,
                    &mut self.seam_losers,
                );
                i += step;
            }
            self.levels.push(SeamLevel {
                level,
                vertical: false,
                seams,
                unions: self.seam_losers.len() - before,
            });
            level += 1;
        }

        // Phase 4a: finalize the seam losers (sequential, O(seam runs) —
        // independent of the band sizes). Chasing a loser's chain ends at a
        // true root holding the component minimum (link_roots keeps minima
        // at survivors); writing that packed value back along the path makes
        // every cross-band parent final, so the per-band sweeps below never
        // read another band's (concurrently mutated) nodes.
        for i in 0..self.seam_losers.len() {
            let mut x = self.seam_losers[i];
            self.chase.clear();
            loop {
                let p = self.node[x as usize] as u32;
                if p == x {
                    break;
                }
                self.chase.push(x);
                x = p;
            }
            let final_val = self.node[x as usize];
            for &y in &self.chase {
                self.node[y as usize] = final_val;
            }
        }

        // Phase 4b: flatten, parallel over bands. Within a band, ascending
        // order + parents-point-down means node[parent] is already flattened
        // when node[k] copies it (vertical seam links stay in-band, so
        // cross-tile parents are fine); a parent below the band base marks a
        // phase-4a-finalized node, which is skipped. Every node ends as
        // `component_min << 32 | root`; roots are counted per band so
        // `last_components` never rescans the arena.
        self.band_roots.clear();
        self.band_roots.resize(ty, 0);
        let mut bands = Vec::with_capacity(ty);
        let mut rest = &mut self.node[..];
        for (i, roots) in self.band_roots.iter_mut().enumerate() {
            let (band, tail) = rest.split_at_mut(band_base[i + 1] - band_base[i]);
            rest = tail;
            bands.push((band_base[i], band, roots));
        }
        run_jobs(bands, |(lo, band, roots)| {
            let mut count = 0usize;
            for k in 0..band.len() {
                let p = band[k] as u32 as usize;
                if let Some(pl) = p.checked_sub(lo) {
                    if pl == k {
                        count += 1;
                    } else {
                        band[k] = band[pl];
                    }
                }
            }
            *roots = count;
        });
    }

    /// Read access to the flattened arena after `Self::build_arena`:
    /// `(runs, node, row_runs)` — run bounds in (row, column) order, nodes
    /// holding `component_min << 32 | root`, and the per-row run ranges.
    pub(crate) fn arena(&self) -> (&[u64], &[u64], &[u32]) {
        (&self.runs, &self.node, &self.row_runs)
    }
}

/// Runs `work` over `jobs`: a phase of one job runs on the calling thread,
/// so a one-worker call — the out-of-core scheduler's 1 × 1 band, once per
/// band — spawns nothing; several jobs each get a scoped thread. None of
/// several runs on the caller: a tile labeled there grows its arenas in the
/// caller's malloc arena, where they were measured to make the caller's
/// later large allocations (a fast-engine frame's component statistics)
/// fault in fresh pages on every call.
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
        for job in std::iter::once(first).chain(jobs) {
            s.spawn(move || work(job));
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

/// Unions runs across the vertical boundary at column `x` for every row in
/// `row_lo..row_hi`: a left run clipped to end exactly at `x - 1` joins the
/// right run starting exactly at `x` on the same row (4-conn) and, with
/// diagonal reach, on the rows directly above/below within the range
/// (8-conn). Rows above/below the range are deliberately out of scope —
/// those adjacencies belong to the full-width horizontal seams.
///
/// Runs are located by binary search within the row's `row_runs` range, so a
/// seam costs `O(rows_in_band · log(runs_per_row))` — proportional to the
/// boundary length, not the band area. Shared with the out-of-core band
/// merger ([`super::ooc`]).
#[allow(clippy::too_many_arguments)]
pub(crate) fn vertical_seam_unions(
    node: &mut [u64],
    runs: &[u64],
    row_runs: &[u32],
    conn: Connectivity,
    x: u64,
    row_lo: usize,
    row_hi: usize,
    losers: &mut Vec<u32>,
) {
    debug_assert!(x > 0);
    for r in row_lo..row_hi {
        let Some(left) = run_ending_at(runs, row_runs, r, x - 1) else {
            continue;
        };
        match conn {
            Connectivity::Four => {
                if let Some(right) = run_starting_at(runs, row_runs, r, x) {
                    union_pair(node, left, right, losers);
                }
            }
            Connectivity::Eight => {
                let lo = r.max(row_lo + 1) - 1;
                let hi = (r + 1).min(row_hi - 1);
                for rr in lo..=hi {
                    if let Some(right) = run_starting_at(runs, row_runs, rr, x) {
                        union_pair(node, left, right, losers);
                    }
                }
            }
        }
    }
}

/// Global index of row `r`'s run ending exactly at column `col`, if any —
/// the left side of a vertical seam.
#[inline]
fn run_ending_at(runs: &[u64], row_runs: &[u32], r: usize, col: u64) -> Option<usize> {
    let (lo, hi) = (row_runs[r] as usize, row_runs[r + 1] as usize);
    let row = &runs[lo..hi];
    let k = row.partition_point(|&sb| (sb >> 32) <= col);
    if k > 0 && (row[k - 1] & 0xffff_ffff) == col {
        Some(lo + k - 1)
    } else {
        None
    }
}

/// Global index of row `r`'s run starting exactly at column `col`, if any —
/// the right side of a vertical seam.
#[inline]
fn run_starting_at(runs: &[u64], row_runs: &[u32], r: usize, col: u64) -> Option<usize> {
    let (lo, hi) = (row_runs[r] as usize, row_runs[r + 1] as usize);
    let row = &runs[lo..hi];
    let k = row.partition_point(|&sb| (sb >> 32) < col);
    if k < row.len() && (row[k] >> 32) == col {
        Some(lo + k)
    } else {
        None
    }
}

/// Finds both runs' roots and links them across a seam.
#[inline]
fn union_pair(node: &mut [u64], a: usize, b: usize, losers: &mut Vec<u32>) {
    let (ra, rb) = (find_pure(node, a as u32), find_pure(node, b as u32));
    link_seam(node, ra, rb, losers);
}

/// Links roots `ra` and `rb` across a seam, recording the loser for the
/// flatten pre-pass; returns the survivor.
#[inline]
fn link_seam(node: &mut [u64], ra: u32, rb: u32, losers: &mut Vec<u32>) -> u32 {
    if ra != rb {
        losers.push(ra.max(rb));
    }
    link_roots(node, ra, rb)
}

/// Read-only find over the packed nodes. Seam unions deliberately do **not**
/// path-halve: halving could rewrite a non-root node's parent onto a
/// cross-band ancestor, breaking the phase-4a invariant that only recorded
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
/// rows `y - 1` and `y` under `conn`. Each row was already unioned within
/// its own band, so both sides need a find; each root that loses a link is
/// appended to `losers` for the flatten pre-pass.
#[allow(clippy::too_many_arguments)]
fn horizontal_seam_unions(
    node: &mut [u64],
    runs: &[u64],
    row_runs: &[u32],
    img: &Bitmap,
    y: usize,
    conn: Connectivity,
    and_buf: &mut Vec<u64>,
    losers: &mut Vec<u32>,
) {
    let cur = row_runs[y] as usize..row_runs[y + 1] as usize;
    let prev = row_runs[y - 1] as usize..row_runs[y] as usize;
    // Cache the lower run's surviving root across its pairs: one find per
    // run, not per pair (link_seam returns the survivor).
    let mut last_c = usize::MAX;
    let mut croot = 0u32;
    for_each_adjacent_pair(
        conn,
        img.row_words(y),
        img.row_words(y - 1),
        &runs[cur.clone()],
        &runs[prev.clone()],
        and_buf,
        |c, q| {
            if c != last_c {
                last_c = c;
                croot = find_pure(node, (cur.start + c) as u32);
            }
            let rq = find_pure(node, (prev.start + q) as u32);
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
    use crate::fast::fast_labels_conn;
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
        let labeler = TiledLabeler::new(0, 0, 0);
        assert_eq!((labeler.tiles(), labeler.threads()), ((1, 1), 1));
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
        labeler.label_into(&big, Connectivity::Eight, &mut grid);
        assert_eq!(grid, fast_labels_conn(&big, Connectivity::Eight));
        assert_eq!(labeler.last_components(), grid.component_count());
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
            let row_runs = [0, split as u32, runs.len() as u32];

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
                &runs,
                &row_runs,
                &img,
                1,
                Connectivity::Eight,
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
