//! Word-parallel run-based connected-component labeling.
//!
//! This is the workspace's *fast sequential engine*: the labeler every
//! differential suite and sweep compares against, and the host-side
//! counterpart the SLAP simulation is benchmarked against. It produces
//! labelings **bit-identical** to [`crate::oracle::bfs_labels_conn`] — each
//! component labeled with the minimum column-major position
//! (`col * rows + row`) over its pixels — at a fraction of the cost:
//!
//! * **coarse-to-fine tiles** — each word × 2-row tile is classified before
//!   any bit is scanned (the block-first strategy of Chen et al.,
//!   arXiv:1712.09789, and Gupta et al., arXiv:1606.05973): *all-background*
//!   tiles are skipped outright, *all-interior* continuation tiles resolve
//!   without touching the run table or the union–find, and only
//!   *boundary* tiles go through the bit-scan path (see [`TileStats`]);
//! * **no per-pixel probing** — maximal horizontal runs are extracted
//!   straight from the packed row words with `trailing_zeros` scans, so a
//!   background word costs one test and a `k`-pixel run costs `O(1 + k/64)`;
//! * **branchless run location** — the 4-connectivity merge finds the run
//!   containing an adjacency segment by *popcount over per-row run-start
//!   masks* instead of walking cursors over the run table, so the hot merge
//!   loop performs no data-dependent pointer chasing outside the union–find
//!   itself;
//! * **one unified 8-connectivity kernel** — the diagonal merge is the same
//!   word-level dilated-AND sweep ([`crate::bitmap::for_each_diagonal_pair`])
//!   used by tile seams and the out-of-core band merge that every
//!   streaming path runs on; the retired two-pointer join survives only as
//!   a test-only reference;
//! * **two-pass union–find over the run universe** — union by minimum run
//!   index, path halving, and per-root minimum-position maintenance;
//! * **bulk output** — labels are written a run at a time with slice fills,
//!   not per pixel;
//! * **records at resolve time** — one more pass over the flattened runs
//!   folds a compact record per component into the grid it filled, so
//!   [`LabelGrid::component_stats`] need not walk the labels again.
//!
//! On `x86_64` hosts the row kernel is compiled twice and dispatched at
//! runtime: a baseline build, and a `popcnt`/`bmi1`/`bmi2` build for the
//! popcount-heavy merge indexing (the portable-binary alternative to a
//! global `-C target-cpu` bump).
//!
//! The run universe here is the *horizontal* transpose of the vertical-run
//! refinement the simulator uses (`slap_cc::runs`): both exploit that a
//! scan line meets each component in a handful of maximal runs.
//!
//! [`FastLabeler`] keeps every scratch array between calls, so labeling a
//! stream of images allocates only when an image exceeds all previous highs.

use crate::bitmap::{for_each_diagonal_pair_at, Bitmap};
use crate::connectivity::Connectivity;
use crate::labels::{ComponentRecord, LabelGrid};
use std::ops::Range;

pub mod ooc;
#[cfg(test)]
mod parallel;
pub mod propagate;
pub mod tiled;

pub use ooc::{OocRun, OocStats, OutOfCoreLabeler};
pub use propagate::{propagate_labels, propagate_labels_conn, PropagateLabeler};
pub use tiled::{tiled_labels, tiled_labels_conn, SeamLevel, TiledLabeler};

/// Labels `img` under 4-connectivity. Convenience wrapper allocating a fresh
/// grid and labeler; hot loops should hold a [`FastLabeler`] instead.
pub fn fast_labels(img: &Bitmap) -> LabelGrid {
    fast_labels_conn(img, Connectivity::Four)
}

/// Labels `img` under an arbitrary adjacency convention. Output is
/// bit-identical to [`crate::oracle::bfs_labels_conn`].
pub fn fast_labels_conn(img: &Bitmap, conn: Connectivity) -> LabelGrid {
    let mut out = LabelGrid::new_background(img.rows(), img.cols());
    FastLabeler::new().label_into(img, conn, &mut out);
    out
}

/// Counts connected components without materializing a label grid.
pub fn fast_component_count(img: &Bitmap, conn: Connectivity) -> usize {
    FastLabeler::new().count_components(img, conn)
}

/// Coarse word × 2-row tile classification counts from the most recent
/// build — the block-based first pass of the coarse-to-fine scan.
///
/// Every scanned row pairs each of its words with the word directly above
/// (the first row of a scan pairs with an implicit empty row), so a
/// full-frame build classifies exactly `words_per_row × rows` tiles and
/// `background + interior + boundary == total` always holds. A ragged tail
/// word (width not a multiple of 64) is never *interior* — its padding bits
/// are background by construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TileStats {
    /// Tiles with no pixel in either row: skipped outright.
    pub background: u64,
    /// Tiles solid in both rows: the open run continues, and — under
    /// 4-connectivity, once the run is linked to the row above — the tile
    /// resolves with no run-table or union–find access at all.
    pub interior: u64,
    /// Mixed tiles, resolved by the run-level bit-scan path.
    pub boundary: u64,
}

impl TileStats {
    /// Total tiles classified (`background + interior + boundary`).
    pub fn total(&self) -> u64 {
        self.background + self.interior + self.boundary
    }

    /// Accumulates another build's counts (worker aggregation in the tiled
    /// engine).
    pub fn accumulate(&mut self, other: TileStats) {
        self.background += other.background;
        self.interior += other.interior;
        self.boundary += other.boundary;
    }
}

/// What one [`LabelEngine::label_into`] call observed, built from the
/// values that call computed and uniform across engines, so sweeps and
/// reports can print one table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of connected components labeled.
    pub components: usize,
    /// Size of the run universe the engine worked over (`0` for the
    /// pixel-probing BFS oracle, which has no run decomposition).
    pub runs: usize,
    /// The engine's configured worker count (`1` for sequential engines).
    pub threads: usize,
    /// Coarse word × 2-row tile classification counts from the block-based
    /// first pass (two-pass run-based engines only; all-zero for the
    /// pixel-probing oracle and the propagation engine, which scan no
    /// tiles). For the engines that do,
    /// `tiles.total() == words_per_row × rows`.
    pub tiles: TileStats,
    /// Relaxation rounds an iterative engine needed to reach its fixpoint,
    /// including the final no-change round that proves convergence
    /// (propagation engine only; `0` for the direct two-pass engines).
    pub iterations: usize,
    /// Pointer-jumping label-reduction passes an iterative engine performed
    /// across all rounds (propagation engine only; `0` otherwise).
    pub reduction_passes: usize,
}

/// A whole-frame labeler: the one interface over [`crate::BfsOracle`],
/// [`FastLabeler`], [`TiledLabeler`] and [`PropagateLabeler`].
///
/// A labeler is stateful scratch, not configuration: create one, then feed
/// it any number of images of any dimensions and either connectivity. Every
/// implementation upholds:
///
/// * **bit-identity** — the output grid equals
///   [`crate::bfs_labels_conn`] exactly (component minima, not merely the
///   same partition);
/// * **reuse** — scratch arenas persist across calls and only grow
///   ([`LabelEngine::scratch_bytes`] is their high-water mark).
///   `tests/alloc_count.rs` counts what a third warm call on a 256² frame
///   allocates: nothing on the sequential labelers (the component records
///   [`FastLabeler`] leaves in the grid included), and nothing of 128 KiB
///   or more on the multithreaded [`TiledLabeler`], which still spawns its
///   workers;
/// * **isolation** — no state leaks between calls: a warm labeler's grid
///   and [`EngineStats`] equal a fresh one's for every input.
pub trait LabelEngine {
    /// Labels `img` into `out` (re-dimensioned as needed; every cell
    /// written) and reports what the call observed.
    fn label_into(&mut self, img: &Bitmap, conn: Connectivity, out: &mut LabelGrid) -> EngineStats;

    /// Total bytes of scratch capacity currently reserved: the labeler's
    /// arena high-water mark.
    fn scratch_bytes(&self) -> usize;
}

/// Reusable word-parallel labeler (see the module docs for the algorithm).
///
/// All scratch storage lives in the struct and is recycled across calls.
#[derive(Debug, Default)]
pub struct FastLabeler {
    /// Bounds of run `k`, packed `start << 32 | end` (both inclusive
    /// columns). Only grows: the current frame's runs are a prefix.
    runs: Vec<u64>,
    /// Union–find node per run, packed `min_pos << 32 | parent` so a find or
    /// link touches one cache line per node instead of two.
    ///
    /// `min_pos` is the minimum column-major position over the set (valid at
    /// roots, propagated downward by the output sweep). Linking is by
    /// *minimum run index* (the smaller-indexed root survives), so every
    /// parent pointer aims at a smaller index and one ascending sweep
    /// flattens the whole forest.
    node: Vec<u64>,
    /// The frame as one tile: its row table and scan buffers.
    scan: TileScan,
}

/// One tile's share of a run arena: its row table and the row kernel's scan
/// buffers. Every in-core labeler builds into one `runs`/`node` arena, each
/// tile filling the disjoint, tile-major index range its row table names.
#[derive(Debug, Default)]
pub(crate) struct TileScan {
    /// The tile's rows and columns, set by [`TileScan::count`].
    rows: Range<usize>,
    cols: Range<usize>,
    /// Arena index of the first run of each of the tile's rows, plus one
    /// trailing sentinel (`row_runs[lr]..row_runs[lr + 1]` are local row
    /// `lr`'s runs).
    row_runs: Vec<u32>,
    /// Scratch words for the 8-connectivity merge: `row[r] & dilate(row[r-1])`.
    and_buf: Vec<u64>,
    /// Masked copies of the current/previous row's words restricted to a
    /// narrower-than-full column window.
    win_cur: Vec<u64>,
    win_prev: Vec<u64>,
    /// Per-word run-start masks of the current/previous row (swapped each
    /// row) — the 4-connectivity merge locates runs by popcount over these
    /// instead of walking cursors over the run table.
    starts_cur: Vec<u64>,
    starts_prev: Vec<u64>,
    /// Tile classification counts of the most recent build.
    tiles: TileStats,
}

/// Mask selecting the high half of a packed word — the `min_pos` half of a
/// union–find node, and equally the `start` half of a packed run.
const MIN_HALF: u64 = 0xffff_ffff_0000_0000;

/// Find with path halving over the packed nodes (the parent lives in the
/// low half; halving writes preserve the `min_pos` half).
#[inline]
fn find_in(node: &mut [u64], mut x: u32) -> u32 {
    // SAFETY of the unchecked accesses: every index chased is a parent
    // pointer, and parents always hold valid (equal-or-smaller) run indices.
    debug_assert!((x as usize) < node.len());
    loop {
        let p = unsafe { *node.get_unchecked(x as usize) } as u32;
        if p == x {
            return x;
        }
        let g = unsafe { *node.get_unchecked(p as usize) } as u32;
        if g != p {
            let n = unsafe { node.get_unchecked_mut(x as usize) };
            *n = (*n & MIN_HALF) | g as u64;
        }
        x = g;
    }
}

/// Links two roots, the smaller index surviving (so parent pointers always
/// aim at smaller indices), and keeps the smaller minimum position at the
/// surviving root; returns it. Idempotent when `ra == rb`.
#[inline]
fn link_roots(node: &mut [u64], ra: u32, rb: u32) -> u32 {
    debug_assert!((ra as usize) < node.len() && (rb as usize) < node.len());
    let (hi, lo) = if ra < rb { (ra, rb) } else { (rb, ra) };
    // SAFETY: callers pass run indices of already-pushed runs.
    unsafe {
        let m = (*node.get_unchecked(ra as usize) & MIN_HALF)
            .min(*node.get_unchecked(rb as usize) & MIN_HALF);
        let nl = node.get_unchecked_mut(lo as usize);
        *nl = (*nl & MIN_HALF) | hi as u64;
        *node.get_unchecked_mut(hi as usize) = m | hi as u64;
    }
    hi
}

/// Patches the inclusive end column of run `n - 1`, the last written (runs
/// crossing a word edge are written with a provisional all-ones end).
#[inline]
fn close_last_run(runs: &mut [u64], n: usize, end: u64) {
    runs[n - 1] = (runs[n - 1] & MIN_HALF) | end;
}

/// Geometry of one row scan, bundled so the multiversioned kernel keeps a
/// small signature.
#[derive(Clone, Copy)]
struct RowGeom {
    /// Valid bit count of the row's words.
    bits: usize,
    /// Absolute column of bit 0 (word-aligned window offset; 0 full-width).
    col_base: u64,
    /// This row's index, as the row term of column-major positions.
    row: u64,
    /// Total image rows, as the column stride of column-major positions.
    rows: u64,
    /// First run index of the previous row.
    prev_lo: u32,
    /// First run index of this row (== one past the previous row's last).
    prev_hi: u32,
}

/// One row scan's words and a tile's arena range and scan buffers, split
/// into disjoint borrows. Run indices are local to the range.
struct RowScan<'a> {
    cur: &'a [u64],
    prev: &'a [u64],
    runs: &'a mut [u64],
    node: &'a mut [u64],
    /// Run-start masks (4-connectivity only; may be empty otherwise).
    starts_cur: &'a mut [u64],
    starts_prev: &'a [u64],
    /// Dilated-AND scratch (8-connectivity only).
    and_buf: &'a mut Vec<u64>,
    tiles: &'a mut TileStats,
}

/// Whether the `popcnt`/`bmi1`/`bmi2` kernel build may run on this host.
/// Detection results are cached by the standard library.
#[inline]
fn hw_scan_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("popcnt")
            && std::is_x86_feature_detected!("bmi1")
            && std::is_x86_feature_detected!("bmi2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Dispatches one row scan to the hardware-feature build when available
/// (`hw` from [`hw_scan_available`]), else the baseline build. Returns one
/// past the row's last run index.
#[inline]
fn scan_row<const FOUR: bool>(hw: bool, g: RowGeom, s: RowScan<'_>) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if hw {
            // SAFETY: `hw` is true only when popcnt/bmi1/bmi2 were detected
            // at runtime, so the target-feature build is valid on this CPU.
            return unsafe { scan_row_hw::<FOUR>(g, s) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = hw;
    scan_row_impl::<FOUR>(g, s)
}

/// Run starts among `words`, the first masked with `mask_lo` and the last
/// with `mask_hi` (one row of the count pass), dispatched like [`scan_row`].
#[inline]
fn count_starts(hw: bool, words: &[u64], mask_lo: u64, mask_hi: u64) -> u32 {
    #[cfg(target_arch = "x86_64")]
    {
        if hw {
            // SAFETY: as in `scan_row`.
            return unsafe { count_starts_hw(words, mask_lo, mask_hi) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = hw;
    count_starts_impl(words, mask_lo, mask_hi)
}

/// [`count_starts_impl`] built with the hardware popcount.
///
/// # Safety
/// The host must support `popcnt`, `bmi1` and `bmi2` ([`hw_scan_available`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt,bmi1,bmi2")]
unsafe fn count_starts_hw(words: &[u64], mask_lo: u64, mask_hi: u64) -> u32 {
    count_starts_impl(words, mask_lo, mask_hi)
}

#[inline(always)]
fn count_starts_impl(words: &[u64], mask_lo: u64, mask_hi: u64) -> u32 {
    let last = words.len() - 1;
    let mut carry = 0u64; // bit 63 of the previous masked word
    let mut n = 0u32;
    for (i, &w) in words.iter().enumerate() {
        let w = w & if i == 0 { mask_lo } else { !0 } & if i == last { mask_hi } else { !0 };
        n += (w & !((w << 1) | carry)).count_ones();
        carry = w >> 63;
    }
    n
}

/// The row kernel compiled with the hardware bit-manipulation features the
/// popcount merge indexing leans on. Must only be called after runtime
/// detection (see [`scan_row`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt,bmi1,bmi2")]
unsafe fn scan_row_hw<const FOUR: bool>(g: RowGeom, s: RowScan<'_>) -> u32 {
    scan_row_impl::<FOUR>(g, s)
}

/// One row of the fused coarse-to-fine scan: word × 2-row tile
/// classification, run extraction, and the vertical merge in a single pass
/// over the packed words.
///
/// `cur` is the row's words (masked to `g.bits`), `prev` the row above (or
/// empty on a scan's first row, which then only extracts). Under
/// 4-connectivity (`FOUR`) the merge is fused into the word loop: each
/// maximal segment of `cur & prev` lies in exactly one run of each row, and
/// the two run indices are recovered *branchlessly* as popcounts of the
/// run-start masks at or left of the segment start — no cursor walks over
/// the run table. Under 8-connectivity the loop instead stages
/// `cur & dilate(prev)` words and the shared diagonal-pair sweep
/// ([`for_each_diagonal_pair_at`]) runs once the row's bounds are final.
///
/// Merge links always aim at the previous row (a current-row run is still a
/// singleton root when first linked), so each adjacency pair costs one find
/// on the previous-row side plus one link, with the current run's root
/// cached across its consecutive pairs.
///
/// The row's runs are written from index `g.prev_hi` on; the return value
/// is one past the last.
#[inline(always)]
fn scan_row_impl<const FOUR: bool>(g: RowGeom, s: RowScan<'_>) -> u32 {
    let RowScan {
        cur,
        prev,
        runs,
        node,
        starts_cur,
        starts_prev,
        and_buf,
        tiles,
    } = s;
    let nw = cur.len();
    let merge = !prev.is_empty();
    debug_assert!(!merge || prev.len() == nw);
    debug_assert!(!FOUR || (starts_cur.len() == nw && starts_prev.len() == nw));
    if !FOUR {
        and_buf.clear();
        and_buf.reserve(nw);
    }
    let rows = g.rows;
    let (prev_lo, prev_hi) = (g.prev_lo, g.prev_hi);
    let mut n = prev_hi as usize; // next run index to write
    let mut open = false; // the last pushed run continues into this word
    let mut and_carry = 0u64; // bit 63 of the previous word's AND (4-conn)
    let mut dil_carry = 0u64; // bit 63 of the previous `prev` word (8-conn)
    let mut cur_cum = 0u32; // this row's runs started in earlier words
    let mut prev_cum = 0u32; // previous row's runs started in earlier words
    let mut last_c = u32::MAX; // run whose set root is cached in `root`
    let mut root = 0u32;
    for wi in 0..nw {
        let w = cur[wi];
        let pw = if merge { prev[wi] } else { 0 };
        // Coarse first pass: classify the word × 2-row tile before scanning
        // any bit. All-background tiles are skipped outright; all-interior
        // continuation tiles resolve with no run-table or union–find access.
        if w | pw == 0 {
            tiles.background += 1;
            if open {
                close_last_run(runs, n, g.col_base + (wi as u64) * 64 - 1);
                open = false;
            }
            if FOUR {
                starts_cur[wi] = 0;
                and_carry = 0;
                // `pw == 0` implies `starts_prev[wi] == 0`: prev_cum holds.
            } else {
                and_buf.push(0);
                dil_carry = 0;
            }
            continue;
        }
        let solid = w & pw == !0u64;
        if solid {
            tiles.interior += 1;
            if open && (!FOUR || and_carry != 0) {
                // All-interior continuation: the open run spans this word
                // and is already linked to the row above (the AND carry),
                // so under 4-connectivity nothing is read or written at
                // all. Under 8-connectivity the run table is likewise
                // untouched; the diagonal sweep crosses the solid AND word
                // in O(1).
                if FOUR {
                    starts_cur[wi] = 0;
                    prev_cum += starts_prev[wi].count_ones();
                } else {
                    and_buf.push(!0u64);
                    dil_carry = 1;
                }
                continue;
            }
        } else {
            tiles.boundary += 1;
        }
        // Boundary path: bit-scan extraction and the run-level merge.
        let base = g.col_base + (wi as u64) * 64;
        let starts_w = w & !((w << 1) | (open as u64));
        if FOUR {
            starts_cur[wi] = starts_w;
        }
        let mut x = w;
        if open {
            if x & 1 == 1 {
                let ones = (!x).trailing_zeros();
                if ones == 64 {
                    x = 0; // the run spans this whole word too
                } else {
                    close_last_run(runs, n, base + u64::from(ones) - 1);
                    open = false;
                    x &= x.wrapping_add(1); // clear the trailing ones
                }
            } else {
                close_last_run(runs, n, base - 1);
                open = false;
            }
        }
        while x != 0 {
            // Adding the lowest set bit carries through the lowest run,
            // clearing it and depositing a bit just past its end — one add
            // yields both the cleared word and the run's end position.
            let lsb = x & x.wrapping_neg();
            let t = x.wrapping_add(lsb);
            let start = base + u64::from(lsb.trailing_zeros());
            node[n] = ((start * rows + g.row) << 32) | n as u64;
            n += 1;
            if t == 0 {
                // The run reaches bit 63: provisional end, patched at close.
                runs[n - 1] = (start << 32) | 0xffff_ffff;
                open = true;
                break;
            }
            runs[n - 1] = (start << 32) | (base + u64::from(t.trailing_zeros()) - 1);
            x &= t;
        }
        if FOUR {
            if merge {
                // Word-parallel 4-adjacency: each maximal segment of
                // `cur & prev` lies inside exactly one run of each row, and
                // every 4-adjacent run pair contains at least one segment —
                // the segment *starts* enumerate precisely the required
                // unions.
                let a = w & pw;
                let seg = a & !((a << 1) | and_carry);
                and_carry = a >> 63;
                let psw = starts_prev[wi];
                let mut sbits = seg;
                while sbits != 0 {
                    let sp = sbits.trailing_zeros();
                    sbits &= sbits - 1;
                    // Locate the runs containing column `sp` branchlessly:
                    // count run starts at or left of it (both rows have a
                    // pixel at `sp`, so both containing runs exist).
                    let below = !0u64 >> (63 - sp);
                    let c = prev_hi + cur_cum + (starts_w & below).count_ones() - 1;
                    let q = prev_lo + prev_cum + (psw & below).count_ones() - 1;
                    if c != last_c {
                        last_c = c;
                        root = c; // a fresh run is still a singleton root
                    }
                    let rq = find_in(node, q);
                    root = link_roots(node, root, rq);
                }
                prev_cum += psw.count_ones();
            }
            cur_cum += starts_w.count_ones();
        } else {
            // Stage the dilated-AND word for the diagonal sweep: bit `i`
            // set iff this row has a pixel at `i` and the row above one
            // within horizontal reach 1 (carries cross word edges).
            let a8 = if merge {
                let next_lo = if wi + 1 < nw { prev[wi + 1] & 1 } else { 0 };
                let d = pw | (pw << 1) | dil_carry | (pw >> 1) | (next_lo << 63);
                dil_carry = pw >> 63;
                w & d
            } else {
                0
            };
            and_buf.push(a8);
        }
    }
    if open {
        close_last_run(runs, n, g.col_base + g.bits as u64 - 1);
    }
    if !FOUR && merge {
        // The unified word-level 8-connectivity kernel — the same sweep as
        // tile seams and the out-of-core band merge every streaming path runs
        // on (the per-site two-pointer join it replaced survives as a
        // test-only reference).
        let (prev_runs, cur_runs) =
            runs[prev_lo as usize..n].split_at((prev_hi - prev_lo) as usize);
        for_each_diagonal_pair_at(
            and_buf,
            g.bits,
            g.col_base,
            cur_runs,
            prev_runs,
            |ci, qi| {
                let c = prev_hi + ci as u32;
                if c != last_c {
                    last_c = c;
                    root = c; // a fresh run is still a singleton root
                }
                let rq = find_in(node, prev_lo + qi as u32);
                root = link_roots(node, root, rq);
            },
        );
    }
    n as u32
}

/// The row words `wlo..whi` that columns `cols` fall in, and the masks that
/// clear the columns outside `cols` in the first and the last of them.
fn window_words(cols: &Range<usize>) -> (usize, usize, u64, u64) {
    let (wlo, whi) = (cols.start / 64, (cols.end - 1) / 64 + 1);
    let mask_lo = !0u64 << (cols.start % 64);
    let mask_hi = if cols.end.is_multiple_of(64) {
        !0u64
    } else {
        (1u64 << (cols.end % 64)) - 1
    };
    (wlo, whi, mask_lo, mask_hi)
}

/// Grows an arena to at least `n` entries, never rewriting what it holds: a
/// warm call overwrites its own prefix in place.
pub(crate) fn grow_arena(arena: &mut Vec<u64>, n: usize) {
    if arena.len() < n {
        arena.resize(n, 0);
    }
}

impl TileScan {
    /// The count pass: fills the row table of the tile `rows` × `cols` with
    /// arena indices from `base` on and returns the next tile's base.
    pub(crate) fn count(
        &mut self,
        img: &Bitmap,
        rows: Range<usize>,
        cols: Range<usize>,
        base: usize,
    ) -> usize {
        let (wlo, whi, mask_lo, mask_hi) = window_words(&cols);
        // Every scan buffer is sized here, on the calling thread and for
        // either connectivity, so a warm tile pass allocates nothing.
        let narrow = cols != (0..img.cols());
        for (buf, used) in [
            (&mut self.and_buf, true),
            (&mut self.starts_cur, true),
            (&mut self.starts_prev, true),
            (&mut self.win_cur, narrow),
            (&mut self.win_prev, narrow),
        ] {
            buf.clear();
            if used {
                buf.resize(whi - wlo, 0);
            }
        }
        let hw = hw_scan_available();
        self.row_runs.clear();
        self.row_runs.reserve_exact(rows.len() + 1);
        let mut end = base;
        for r in rows.clone() {
            self.row_runs
                .push(u32::try_from(end).expect("run count exceeds u32"));
            end += count_starts(hw, &img.row_words(r)[wlo..whi], mask_lo, mask_hi) as usize;
        }
        self.row_runs
            .push(u32::try_from(end).expect("run count exceeds u32"));
        (self.rows, self.cols) = (rows, cols);
        end
    }

    /// Arena index of the tile's first run.
    pub(crate) fn base(&self) -> usize {
        self.row_runs.first().map_or(0, |&k| k as usize)
    }

    /// One past the arena index of the tile's last run.
    pub(crate) fn end(&self) -> usize {
        self.row_runs.last().map_or(0, |&k| k as usize)
    }

    /// The tile pass over the counted tile: extracts every row's runs into
    /// `runs`/`node`, the tile's arena range, and unions vertically adjacent
    /// ones. The tile is scanned in isolation (the tiled engine's seams join
    /// it to its neighbors); a narrower-than-full one scans masked copies of
    /// its row words. Run bounds and minima are **global**; parents are
    /// range-local until a tile past the arena's start rebases them.
    pub(crate) fn build(
        &mut self,
        img: &Bitmap,
        conn: Connectivity,
        runs: &mut [u64],
        node: &mut [u64],
    ) {
        let base = self.base() as u32;
        debug_assert!(runs.len() == self.end() - self.base() && node.len() == runs.len());
        let full = self.cols == (0..img.cols());
        let rows = img.rows() as u64;
        self.tiles = TileStats::default();
        let (wlo, whi, mask_lo, mask_hi) = window_words(&self.cols);
        // Window positions are relative to word `wlo`; `col_base` maps them
        // back to absolute columns.
        let bits = self.cols.end - wlo * 64;
        let col_base = (wlo * 64) as u64;
        let four = conn == Connectivity::Four;
        let hw = hw_scan_available();
        let mut prev_lo = 0u32;
        let row_lo = self.rows.start;
        for r in self.rows.clone() {
            let lr = r - row_lo;
            let prev_hi = self.row_runs[lr] - base;
            if !full {
                // Masked copy of this row's window words.
                self.win_cur.clear();
                self.win_cur.extend_from_slice(&img.row_words(r)[wlo..whi]);
                self.win_cur[0] &= mask_lo;
                let last = self.win_cur.len() - 1;
                self.win_cur[last] &= mask_hi;
            }
            if four {
                std::mem::swap(&mut self.starts_cur, &mut self.starts_prev);
            }
            let g = RowGeom {
                bits,
                col_base,
                row: r as u64,
                rows,
                prev_lo,
                prev_hi,
            };
            let TileScan {
                row_runs,
                and_buf,
                win_cur,
                win_prev,
                starts_cur,
                starts_prev,
                tiles,
                ..
            } = self;
            let (cur, prev): (&[u64], &[u64]) = match (full, r > row_lo) {
                (true, true) => (img.row_words(r), img.row_words(r - 1)),
                (true, false) => (img.row_words(r), &[]),
                (false, true) => (win_cur, win_prev),
                (false, false) => (win_cur, &[]),
            };
            let scan = RowScan {
                cur,
                prev,
                runs: &mut *runs,
                node: &mut *node,
                starts_cur,
                starts_prev,
                and_buf,
                tiles,
            };
            let end = if four {
                scan_row::<true>(hw, g, scan)
            } else {
                scan_row::<false>(hw, g, scan)
            };
            // The output sweep's unchecked reads trust the row tables, so a
            // row the kernel and the count pass disagree on must not pass.
            assert_eq!(
                end,
                row_runs[lr + 1] - base,
                "row {r}: kernel and count disagree"
            );
            if !full {
                std::mem::swap(&mut self.win_cur, &mut self.win_prev);
            }
            prev_lo = prev_hi;
        }
        if base > 0 {
            // Parent halves are below `end <= u32::MAX`, so the packed
            // addition never carries into the `min_pos` half.
            for n in node.iter_mut() {
                *n += u64::from(base);
            }
        }
    }

    /// Bytes of scratch capacity the tile holds.
    pub(crate) fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        self.row_runs.capacity() * size_of::<u32>()
            + (self.and_buf.capacity()
                + self.win_cur.capacity()
                + self.win_prev.capacity()
                + self.starts_cur.capacity()
                + self.starts_prev.capacity())
                * size_of::<u64>()
    }
}

/// Pass 2 over one band of tiles (the whole frame for [`FastLabeler`]): the
/// flattening sweep fused with the label output into `out`, the band's rows.
/// Once every band is flattened, [`fold_records`] walks the whole arena for
/// the component records.
/// `node` is the band's arena range, from index `lo` on. Tiles are visited
/// in ascending index order and parents point down, so run `k`'s parent is
/// already flattened — it holds the root and the component minimum — and
/// copying it down both flattens `k` and delivers its label. A parent below
/// `lo` marks a node already made final. Returns the band's root count.
///
/// # Safety
/// `tiles` must be the band's tiles as built ([`TileScan::build`]): their
/// row tables cover `lo..lo + node.len()`, every parent in `node` is at most
/// its own index (or below `lo`), and every run lies in `0..cols`, with
/// `out` holding `cols` cells per tile row.
pub(crate) unsafe fn flatten_fill(
    node: &mut [u64],
    lo: usize,
    runs: &[u64],
    tiles: &[TileScan],
    out: &mut [u32],
    cols: usize,
) -> usize {
    let mut roots = 0usize;
    for (j, t) in tiles.iter().enumerate() {
        for (lr, span) in t.row_runs.windows(2).enumerate() {
            let row = &mut out[lr * cols..(lr + 1) * cols];
            // The band's first tile clears each row once; the others only
            // write their runs.
            if j == 0 {
                row.fill(LabelGrid::BACKGROUND);
            }
            let (ka, kb) = (span[0] as usize, span[1] as usize);
            for (k, &sb) in (ka..kb).zip(&runs[ka..kb]) {
                let kl = k - lo;
                let p = node[kl] as u32 as usize;
                roots += (p == k) as usize;
                let np = match p.checked_sub(lo) {
                    // SAFETY: parents point at equal-or-smaller indices (the
                    // caller's contract), so `pl <= kl < node.len()`.
                    Some(pl) => unsafe { *node.get_unchecked(pl) },
                    None => node[kl],
                };
                node[kl] = np;
                let label = (np >> 32) as u32;
                let (a, b) = ((sb >> 32) as usize, (sb & 0xffff_ffff) as usize);
                // SAFETY: every run lies in `0..cols` and `row.len() ==
                // cols` (the caller's contract).
                unsafe {
                    // Most runs are a pixel or two: two unconditional stores
                    // cover them, the fill only handles longer spans.
                    *row.get_unchecked_mut(a) = label;
                    *row.get_unchecked_mut(b) = label;
                    if b - a > 1 {
                        row.get_unchecked_mut(a + 1..b).fill(label);
                    }
                }
            }
        }
    }
    roots
}

/// The record fold, run once the arena is flattened (every node `component
/// min << 32 | root`): one walk over `tiles` in arena order leaves one
/// record per component in `out`, the grid the flatten just filled, which
/// then carries them to [`LabelGrid::component_stats`]. `components` is the
/// flatten's root count.
///
/// A component's root is its smallest arena index, so the walk meets it
/// before any other run of the component. The root opens the next record
/// and keeps its index in the low half of its own node; every later run
/// finds it there through its root. Each run then adds its pixels, row and
/// last column to its record, the same few instructions for roots and the
/// rest (records start empty).
/// `O(runs)`, with no scratch beyond the records themselves; afterwards
/// every node visited holds `component min << 32 | record index`.
pub(crate) fn fold_records(
    node: &mut [u64],
    runs: &[u64],
    tiles: &[TileScan],
    components: usize,
    out: &mut LabelGrid,
) {
    let records = out.records_mut();
    records.resize(
        components,
        ComponentRecord {
            label: 0,
            pixels: 0,
            min_row: u32::MAX,
            max_row: 0,
            max_col: 0,
        },
    );
    let mut opened = 0u32;
    for t in tiles {
        for (row, span) in (t.rows.start as u32..).zip(t.row_runs.windows(2)) {
            let (ka, kb) = (span[0] as usize, span[1] as usize);
            for (k, &sb) in (ka..kb).zip(&runs[ka..kb]) {
                let (a, b) = ((sb >> 32) as u32, sb as u32);
                let n = node[k];
                let root = n as u32 as usize;
                debug_assert!(root <= k, "roots are their components' first runs");
                let is_root = root == k;
                // Loaded even for a root (its own node), so the select needs
                // no branch: about a quarter of random50's runs are roots.
                let at_root = node[root] as u32;
                let ix = if is_root { opened } else { at_root };
                node[k] = (n & MIN_HALF) | u64::from(ix);
                opened += u32::from(is_root);
                let rec = &mut records[ix as usize];
                rec.label = (n >> 32) as u32;
                rec.pixels += b - a + 1;
                // A tile-major arena can reach a component's rows out of
                // order (a right tile's rows precede a lower tile's).
                rec.min_row = rec.min_row.min(row);
                rec.max_row = rec.max_row.max(row);
                rec.max_col = rec.max_col.max(b);
            }
        }
    }
    debug_assert_eq!(opened as usize, components, "one record per root");
}

impl FastLabeler {
    /// Creates a labeler with empty (growable) scratch storage.
    pub fn new() -> Self {
        FastLabeler::default()
    }

    /// Pass 1: the count pass and the tile pass over the frame as one tile
    /// ([`TileScan::build`]). Returns the total run count.
    fn build_runs(&mut self, img: &Bitmap, conn: Connectivity) -> usize {
        let total = self.scan.count(img, 0..img.rows(), 0..img.cols(), 0);
        grow_arena(&mut self.runs, total);
        grow_arena(&mut self.node, total);
        self.scan
            .build(img, conn, &mut self.runs[..total], &mut self.node[..total]);
        total
    }

    /// Counts components (number of union–find roots) without writing any
    /// labels.
    pub fn count_components(&mut self, img: &Bitmap, conn: Connectivity) -> usize {
        let total = self.build_runs(img, conn);
        self.node[..total]
            .iter()
            .enumerate()
            .filter(|&(k, &n)| n as u32 == k as u32)
            .count()
    }
}

impl LabelEngine for FastLabeler {
    /// Every cell is written exactly once: runs with their component label,
    /// gaps with background. The root count is folded into that sweep, and
    /// the component records into one more pass over the runs
    /// ([`fold_records`]), which `out` then carries.
    fn label_into(&mut self, img: &Bitmap, conn: Connectivity, out: &mut LabelGrid) -> EngineStats {
        let total = self.build_runs(img, conn);
        out.reset_dims(img.rows(), img.cols());
        // SAFETY: `build_runs` just built the one tile over the whole frame
        // into `..total`: link_roots points parents down, extraction clamps
        // runs to the frame, and the grid has `cols` cells per row.
        let components = unsafe {
            flatten_fill(
                &mut self.node[..total],
                0,
                &self.runs,
                std::slice::from_ref(&self.scan),
                out.cells_mut(),
                img.cols(),
            )
        };
        fold_records(
            &mut self.node[..total],
            &self.runs,
            std::slice::from_ref(&self.scan),
            components,
            out,
        );
        EngineStats {
            components,
            runs: total,
            threads: 1,
            tiles: self.scan.tiles,
            ..EngineStats::default()
        }
    }

    fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.runs.capacity() + self.node.capacity()) * size_of::<u64>() + self.scan.scratch_bytes()
    }
}

#[cfg(test)]
impl FastLabeler {
    /// The retired pre-coarse-to-fine build, kept verbatim as the reference
    /// the differential battery compares arenas against: exact presizing,
    /// whole-row extraction, the cursor-walk 4-connectivity merge, and the
    /// two-pointer diagonal join with widened reach that the word-level
    /// dilated-AND sweep replaced. Produces `runs`/`row_runs`/`node` arrays
    /// the production [`FastLabeler::build_runs`] must match **word for
    /// word** — same run order, same union order, same packed minima.
    fn build_runs_reference(&mut self, img: &Bitmap, conn: Connectivity) -> usize {
        use crate::bitmap::for_each_run_in_words;
        let rows_u64 = img.rows() as u64;
        self.runs.clear();
        self.scan.row_runs.clear();
        self.node.clear();
        let total_runs: usize = (0..img.rows()).map(|r| img.count_row_runs(r)).sum();
        self.runs.reserve(total_runs);
        self.node.reserve(total_runs);
        self.scan.row_runs.reserve(img.rows() + 1);
        // Under 8-connectivity a run also touches the previous row's runs one
        // column diagonally past each end.
        let reach = match conn {
            Connectivity::Four => 0u64,
            Connectivity::Eight => 1u64,
        };
        let mut prev_lo = 0usize;
        for r in 0..img.rows() {
            let prev_hi = self.runs.len();
            self.scan
                .row_runs
                .push(u32::try_from(prev_hi).expect("run count exceeds u32"));
            let runs = &mut self.runs;
            img.for_each_row_run(r, |a, b| {
                runs.push(((a as u64) << 32) | b as u64);
            });
            let cur_hi = self.runs.len();
            let r_u64 = r as u64;
            {
                let FastLabeler { runs, node, .. } = self;
                node.extend(runs[prev_hi..cur_hi].iter().enumerate().map(|(off, &sb)| {
                    let min = (sb >> 32) * rows_u64 + r_u64;
                    (min << 32) | (prev_hi + off) as u64
                }));
            }
            match conn {
                Connectivity::Four if r > 0 => {
                    // Word-parallel adjacency with cursor walks over the run
                    // table (the production path recovers the same indices
                    // by popcount instead).
                    let FastLabeler {
                        runs, node, scan, ..
                    } = self;
                    let and_buf = &mut scan.and_buf;
                    and_buf.clear();
                    and_buf.extend(
                        img.row_words(r)
                            .iter()
                            .zip(img.row_words(r - 1))
                            .map(|(&a, &b)| a & b),
                    );
                    let mut c = prev_hi;
                    let mut q = prev_lo;
                    let mut root = u32::MAX;
                    for_each_run_in_words(and_buf, img.cols(), |s, _| {
                        let s = s as u64;
                        if root == u32::MAX || (runs[c] & 0xffff_ffff) < s {
                            while (runs[c] & 0xffff_ffff) < s {
                                c += 1;
                            }
                            root = c as u32;
                        }
                        while (runs[q] & 0xffff_ffff) < s {
                            q += 1;
                        }
                        let rq = find_in(node, q as u32);
                        root = link_roots(node, root, rq);
                    });
                }
                _ => {
                    // The retired two-pointer diagonal join: column-sorted
                    // run lists, widened bounds, and the p = q - 1 backstep
                    // so a prev run shared by two adjacent lower runs is
                    // reconsidered.
                    let FastLabeler { runs, node, .. } = self;
                    let (prev, cur) = runs[prev_lo..].split_at(prev_hi - prev_lo);
                    let mut p = 0usize;
                    for (off, &sb) in cur.iter().enumerate() {
                        let aw = (sb >> 32).saturating_sub(reach);
                        let bw = (sb & 0xffff_ffff) + reach;
                        while p < prev.len() && (prev[p] & 0xffff_ffff) < aw {
                            p += 1;
                        }
                        let mut q = p;
                        let mut root = (prev_hi + off) as u32;
                        while q < prev.len() && (prev[q] >> 32) <= bw {
                            let rq = find_in(node, (prev_lo + q) as u32);
                            root = link_roots(node, root, rq);
                            q += 1;
                        }
                        if q > p {
                            p = q - 1;
                        }
                    }
                }
            }
            prev_lo = prev_hi;
        }
        self.scan
            .row_runs
            .push(u32::try_from(self.runs.len()).expect("run count exceeds u32"));
        self.runs.len()
    }

    /// Snapshot of the three build arenas, for word-for-word comparison.
    fn arena_snapshot(&self) -> (Vec<u64>, Vec<u32>, Vec<u64>) {
        let n = self.scan.end();
        (
            self.runs[..n].to_vec(),
            self.scan.row_runs.clone(),
            self.node[..n].to_vec(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::oracle::{bfs_labels, bfs_labels_conn};

    #[test]
    fn matches_oracle_on_tiny_shapes() {
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
        ] {
            let img = Bitmap::from_art(art);
            for conn in [Connectivity::Four, Connectivity::Eight] {
                assert_eq!(
                    fast_labels_conn(&img, conn),
                    bfs_labels_conn(&img, conn),
                    "conn={conn:?} art:\n{art}"
                );
            }
        }
    }

    #[test]
    fn matches_oracle_on_every_workload_family() {
        for name in gen::WORKLOADS {
            let img = gen::by_name(name, 40, 17).unwrap();
            for conn in [Connectivity::Four, Connectivity::Eight] {
                assert_eq!(
                    fast_labels_conn(&img, conn),
                    bfs_labels_conn(&img, conn),
                    "workload {name} conn={conn:?}"
                );
            }
        }
    }

    #[test]
    fn matches_oracle_on_word_boundary_widths() {
        for cols in [63usize, 64, 65, 127, 128, 130] {
            let img = gen::uniform_random(37, cols, 0.5, cols as u64);
            assert_eq!(fast_labels(&img), bfs_labels(&img), "cols={cols}");
        }
    }

    #[test]
    fn matches_oracle_on_degenerate_shapes() {
        for art in ["#", "#.##.#", "#\n#\n.\n#\n"] {
            let img = Bitmap::from_art(art);
            assert_eq!(fast_labels(&img), bfs_labels(&img), "art {art:?}");
        }
        let single_row = gen::uniform_random(1, 200, 0.5, 9);
        assert_eq!(fast_labels(&single_row), bfs_labels(&single_row));
        let single_col = gen::uniform_random(200, 1, 0.5, 9);
        assert_eq!(fast_labels(&single_col), bfs_labels(&single_col));
    }

    #[test]
    fn reused_labeler_leaves_no_stale_state() {
        let mut labeler = FastLabeler::new();
        let mut grid = LabelGrid::new_background(1, 1);
        // Large then small: scratch arrays shrink logically, not physically.
        let big = gen::uniform_random(80, 80, 0.6, 1);
        labeler.label_into(&big, Connectivity::Four, &mut grid);
        assert_eq!(grid, bfs_labels(&big));
        let small = Bitmap::from_art("#.#\n###\n");
        labeler.label_into(&small, Connectivity::Four, &mut grid);
        assert_eq!(grid, bfs_labels(&small));
        labeler.label_into(&big, Connectivity::Eight, &mut grid);
        assert_eq!(grid, bfs_labels_conn(&big, Connectivity::Eight));
    }

    #[test]
    fn component_count_matches_labels() {
        for name in ["random50", "checker", "maze", "antidiag", "empty", "full"] {
            let img = gen::by_name(name, 32, 5).unwrap();
            for conn in [Connectivity::Four, Connectivity::Eight] {
                assert_eq!(
                    fast_component_count(&img, conn),
                    bfs_labels_conn(&img, conn).component_count(),
                    "workload {name} conn={conn:?}"
                );
            }
        }
    }

    #[test]
    fn eight_connectivity_bridges_only_diagonals_in_reach() {
        // Two runs offset by exactly one column must merge under 8-conn but
        // not 4-conn; offset two must merge under neither.
        let touch = Bitmap::from_art("##..\n..##\n");
        assert_eq!(fast_component_count(&touch, Connectivity::Four), 2);
        assert_eq!(fast_component_count(&touch, Connectivity::Eight), 1);
        let gap = Bitmap::from_art("##...\n...##\n");
        assert_eq!(fast_component_count(&gap, Connectivity::Four), 2);
        assert_eq!(fast_component_count(&gap, Connectivity::Eight), 2);
    }

    /// Asserts the production build and the retired reference build agree
    /// arena for arena — same runs, same row table, same packed union–find
    /// words (so the same unions in the same order, not merely the same
    /// partition).
    fn assert_build_matches_reference(img: &Bitmap, conn: Connectivity, what: &str) {
        let mut prod = FastLabeler::new();
        let mut reference = FastLabeler::new();
        prod.build_runs(img, conn);
        reference.build_runs_reference(img, conn);
        let (pr, prr, pn) = prod.arena_snapshot();
        let (rr, rrr, rn) = reference.arena_snapshot();
        assert_eq!(pr, rr, "run table diverged: {what} conn={conn:?}");
        assert_eq!(prr, rrr, "row table diverged: {what} conn={conn:?}");
        assert_eq!(pn, rn, "union-find arena diverged: {what} conn={conn:?}");
    }

    #[test]
    fn coarse_build_matches_retired_reference_word_for_word() {
        for name in gen::WORKLOADS {
            let img = gen::by_name(name, 48, 23).unwrap();
            for conn in [Connectivity::Four, Connectivity::Eight] {
                assert_build_matches_reference(&img, conn, name);
            }
        }
        for cols in [63usize, 64, 65, 127, 128, 130] {
            for density in [0.1, 0.5, 0.9] {
                let img = gen::uniform_random(37, cols, density, cols as u64);
                for conn in [Connectivity::Four, Connectivity::Eight] {
                    assert_build_matches_reference(
                        &img,
                        conn,
                        &format!("random cols={cols} density={density}"),
                    );
                }
            }
        }
    }

    #[test]
    fn in_strip_eight_merge_survives_the_seam_regression_fixtures() {
        // The PR 4 seam edge cases, replayed against the in-strip row merge
        // now that it shares the word-level diagonal kernel with the seams:
        // a lower run diagonally bridging two upper runs (the p = q - 1
        // backstep), both orientations, and a long chain of alternating
        // single-diagonal touches.
        for art in [
            "..#..\n##.##\n",
            "##.##\n..#..\n",
            "##.##.##.##\n..#..#..#..\n",
            "..#..#..#..\n##.##.##.##\n",
            // Adjacent lower runs sharing one diagonal upper run.
            "...#...\n##...##\n",
            "##...##\n...#...\n",
        ] {
            let img = Bitmap::from_art(art);
            assert_eq!(
                fast_labels_conn(&img, Connectivity::Eight),
                bfs_labels_conn(&img, Connectivity::Eight),
                "art:\n{art}"
            );
            assert_build_matches_reference(&img, Connectivity::Eight, art);
        }
    }

    #[test]
    fn tile_counters_cover_every_tile_exactly_once() {
        for name in gen::WORKLOADS {
            for (rows, cols) in [(40usize, 63usize), (40, 64), (40, 65), (7, 300)] {
                let img = gen::by_name_dims(name, rows, cols, 17).unwrap();
                for conn in [Connectivity::Four, Connectivity::Eight] {
                    let mut lab = FastLabeler::new();
                    let mut out = LabelGrid::new_background(1, 1);
                    let ts = lab.label_into(&img, conn, &mut out).tiles;
                    assert_eq!(
                        ts.total(),
                        (img.words_per_row() * img.rows()) as u64,
                        "{name} {rows}x{cols} conn={conn:?} {ts:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn interior_and_background_tiles_are_actually_detected() {
        // A solid frame: every tile except the first row of words is
        // interior (the first row pairs with the implicit empty row above).
        let full = gen::by_name("full", 64, 0).unwrap();
        let mut lab = FastLabeler::new();
        let mut out = LabelGrid::new_background(1, 1);
        let ts = lab.label_into(&full, Connectivity::Four, &mut out).tiles;
        assert_eq!(ts.background, 0);
        assert_eq!(ts.boundary, full.words_per_row() as u64);
        assert_eq!(ts.interior, (full.words_per_row() * 63) as u64);
        // An empty frame: every tile is background.
        let empty = gen::by_name("empty", 64, 0).unwrap();
        let ts = lab.label_into(&empty, Connectivity::Four, &mut out).tiles;
        assert_eq!(ts.background, ts.total());
        // A ragged tail word is never interior: 65 columns of solid rows
        // leave the one-bit tail word classified boundary, not interior.
        let ragged = gen::by_name_dims("full", 8, 65, 0).unwrap();
        let ts = lab.label_into(&ragged, Connectivity::Four, &mut out).tiles;
        assert_eq!(out, bfs_labels(&ragged));
        assert_eq!(ts.interior, 7, "only the full words below row 0");
        assert_eq!(ts.boundary, 2 + 7, "row 0 words + every tail word");
    }

    #[test]
    fn labels_are_min_column_major_positions_not_just_partition() {
        // A U-shape closing on the right: the component's least column-major
        // position sits in the leftmost column.
        let img = Bitmap::from_art(
            "###\n\
             ..#\n\
             ###\n",
        );
        let l = fast_labels(&img);
        for (r, c) in img.iter_ones_colmajor() {
            assert_eq!(l.get(r, c), 0);
        }
    }
}
