//! Iterative label-equivalence propagation — the GPU-style CCL kernel on
//! the host.
//!
//! This is the sixth registry engine, and the deliberate *contrast* to the
//! union–find two-pass in [`crate::fast`]: instead of linking runs into a
//! forest as the scan discovers adjacencies, it initializes every run's
//! label to its own index and then **iterates** — the label-equivalence
//! scheme of modern data-parallel CCL (Komura's label equivalence as refined
//! by Chen/Playne et al., arXiv:1708.08180, and the adaptive iteration of
//! Sutton et al., arXiv:1612.01178), which descends directly from the SLAP
//! paper's min-propagation view of labeling:
//!
//! * **word-level adjacency extraction, once** — runs come straight from the
//!   packed row words (`trailing_zeros` scans), and the run-adjacency edge
//!   list is built by whole-word shift/AND kernels (`cur & prev` for
//!   4-connectivity, `cur & dilate(prev)` for 8 — the same
//!   [`crate::bitmap::for_each_adjacent_pair`] sweep every other engine
//!   shares),
//!   so no per-pixel branching happens anywhere;
//! * **alternating relaxation sweeps** — each round relaxes every edge
//!   forward (ascending row order) then backward, writing the smaller label
//!   into the *representative slot* of the larger side (the 1708.08180
//!   "merge": hooking labels at their roots, which merges whole equivalence
//!   trees per edge instead of moving one run at a time);
//! * **pointer-jumping reduction between rounds** — `L[i] = L[L[i]]` passes
//!   until the forest is flat (the 1708.08180 "compression"), so the next
//!   sweep relaxes with fully-resolved representatives. Hooking + flattening
//!   is what turns the spiral/serpentine/hilbert adversarial families from
//!   Θ(path) rounds into a handful;
//! * **flat hot loop** — a round is three branch-predictable passes over
//!   flat `u32`/`u64` arrays (no pointer chasing beyond one indirection),
//!   the shape that vectorizes and the natural kernel to hand to real
//!   SIMD/GPU later.
//!
//! Output is **bit-identical** to [`crate::oracle::bfs_labels_conn`]: at the
//! fixpoint every run's representative is its component's minimum run index,
//! and a final fold resolves that to the minimum column-major position.
//! [`PropagateLabeler`] keeps all arenas between calls, so a warm call
//! allocates nothing.

use super::{EngineStats, LabelEngine};
use crate::bitmap::{for_each_adjacent_pair, Bitmap};
use crate::connectivity::Connectivity;
use crate::labels::LabelGrid;

/// Labels `img` under 4-connectivity by iterative label propagation.
/// Convenience wrapper; hot loops should hold a [`PropagateLabeler`].
pub fn propagate_labels(img: &Bitmap) -> LabelGrid {
    propagate_labels_conn(img, Connectivity::Four)
}

/// Labels `img` under an arbitrary adjacency convention. Output is
/// bit-identical to [`crate::oracle::bfs_labels_conn`].
pub fn propagate_labels_conn(img: &Bitmap, conn: Connectivity) -> LabelGrid {
    let mut out = LabelGrid::new_background(img.rows(), img.cols());
    PropagateLabeler::new().label_into(img, conn, &mut out);
    out
}

/// Reusable iterative-propagation labeler (see the module docs for the
/// algorithm). All scratch arenas persist across calls.
#[derive(Debug, Default)]
pub struct PropagateLabeler {
    /// Bounds of run `k`, packed `start << 32 | end` (inclusive columns),
    /// in row order.
    runs: Vec<u64>,
    /// Index of the first run of each row, plus one trailing sentinel.
    row_runs: Vec<u32>,
    /// Run-adjacency edges, packed `cur << 32 | prev` with `cur` in row `r`
    /// and `prev` in row `r - 1` (so `prev < cur` always). Built once per
    /// call by the word-level kernels; ascending row order by construction.
    edges: Vec<u64>,
    /// The label array `L`: run index → representative run index. `L[i] <= i`
    /// always; at the fixpoint `L[i]` is the component's minimum run index.
    labels: Vec<u32>,
    /// Per run: minimum column-major position (the run's leftmost pixel);
    /// folded to per-component minima over the representatives at readout.
    minpos: Vec<u32>,
    /// Whole-word adjacency scratch (`cur & prev`, possibly dilated).
    and_buf: Vec<u64>,
}

impl PropagateLabeler {
    /// Creates a labeler with empty (growable) scratch storage.
    pub fn new() -> Self {
        PropagateLabeler::default()
    }

    /// Pass 1: extract every row's runs from the packed words and build the
    /// run-adjacency edge list with whole-word AND kernels.
    fn build(&mut self, img: &Bitmap, conn: Connectivity) {
        let rows = img.rows();
        let rows_u64 = rows as u64;
        self.runs.clear();
        self.row_runs.clear();
        self.edges.clear();
        self.minpos.clear();
        self.row_runs.reserve(rows + 1);
        let mut prev_lo = 0usize;
        for r in 0..rows {
            let prev_hi = self.runs.len();
            self.row_runs
                .push(u32::try_from(prev_hi).expect("run count exceeds u32"));
            {
                let PropagateLabeler { runs, minpos, .. } = self;
                let r_u64 = r as u64;
                img.for_each_row_run(r, |a, b| {
                    runs.push((u64::from(a) << 32) | u64::from(b));
                    minpos.push((u64::from(a) * rows_u64 + r_u64) as u32);
                });
            }
            if r > 0 {
                let cur_hi = self.runs.len();
                self.push_row_edges(img, conn, r, prev_lo, prev_hi, cur_hi);
                prev_lo = prev_hi;
            }
        }
        self.row_runs
            .push(u32::try_from(self.runs.len()).expect("run count exceeds u32"));
    }

    /// Appends the adjacency edges between row `r` (runs
    /// `prev_hi..cur_hi`) and row `r - 1` (runs `prev_lo..prev_hi`).
    fn push_row_edges(
        &mut self,
        img: &Bitmap,
        conn: Connectivity,
        r: usize,
        prev_lo: usize,
        prev_hi: usize,
        cur_hi: usize,
    ) {
        let PropagateLabeler {
            runs,
            edges,
            and_buf,
            ..
        } = self;
        let (prev_runs, cur_runs) = runs[prev_lo..cur_hi].split_at(prev_hi - prev_lo);
        for_each_adjacent_pair(
            conn,
            img.row_words(r),
            img.row_words(r - 1),
            cur_runs,
            prev_runs,
            and_buf,
            |c, q| edges.push((((prev_hi + c) as u64) << 32) | (prev_lo + q) as u64),
        );
    }

    /// Pass 2: iterate relaxation rounds to the fixpoint. Each round is a
    /// forward edge sweep, a backward edge sweep, and pointer-jumping
    /// reduction passes until the label forest is flat; rounds repeat until
    /// one changes nothing. Returns the rounds, including the final
    /// no-change round that proves convergence (so always ≥ 1), and the
    /// reduction passes across all rounds, each counting the final pass
    /// that verifies flatness.
    fn solve(&mut self) -> (usize, usize) {
        let n = self.runs.len();
        self.labels.clear();
        self.labels.extend(0..n as u32);
        let (mut iterations, mut reduction_passes) = (0, 0);
        let PropagateLabeler { edges, labels, .. } = self;
        loop {
            iterations += 1;
            let mut changed = false;
            // Forward sweep (ascending rows): hook the larger representative
            // to the smaller. Writing through `L[l]` (the representative
            // slot) instead of the run itself is the 1708.08180 merge — one
            // edge can pull a whole equivalence tree down.
            for &e in edges.iter() {
                let (a, b) = ((e >> 32) as usize, (e & 0xffff_ffff) as usize);
                // SAFETY: edges hold run indices `< n == labels.len()`, and
                // labels always hold run indices (they only ever take values
                // of other label slots, starting from the identity).
                unsafe {
                    let la = *labels.get_unchecked(a);
                    let lb = *labels.get_unchecked(b);
                    let (lo, hi) = if la < lb { (la, lb) } else { (lb, la) };
                    let slot = labels.get_unchecked_mut(hi as usize);
                    if lo < *slot {
                        *slot = lo;
                        changed = true;
                    }
                }
            }
            // Backward sweep (descending rows): the mirror relaxation, so a
            // monotone-ascending chain resolves within the same round.
            for &e in edges.iter().rev() {
                let (a, b) = ((e >> 32) as usize, (e & 0xffff_ffff) as usize);
                // SAFETY: as above.
                unsafe {
                    let la = *labels.get_unchecked(a);
                    let lb = *labels.get_unchecked(b);
                    let (lo, hi) = if la < lb { (la, lb) } else { (lb, la) };
                    let slot = labels.get_unchecked_mut(hi as usize);
                    if lo < *slot {
                        *slot = lo;
                        changed = true;
                    }
                }
            }
            if !changed {
                // The previous round's reduction left the forest flat and no
                // edge relaxed: every adjacent pair agrees — fixpoint.
                break;
            }
            // Pointer-jumping reduction (the 1708.08180 compression):
            // `L[i] = L[L[i]]` passes until flat. Ascending order makes each
            // pass at least halve every chain's depth.
            loop {
                reduction_passes += 1;
                let mut jumped = false;
                for i in 0..n {
                    // SAFETY: label values are run indices < n.
                    unsafe {
                        let l = *labels.get_unchecked(i);
                        let ll = *labels.get_unchecked(l as usize);
                        if ll != l {
                            *labels.get_unchecked_mut(i) = ll;
                            jumped = true;
                        }
                    }
                }
                if !jumped {
                    break;
                }
            }
        }
        (iterations, reduction_passes)
    }

    /// Counts components without writing any labels.
    pub fn count_components(&mut self, img: &Bitmap, conn: Connectivity) -> usize {
        self.build(img, conn);
        self.solve();
        self.labels
            .iter()
            .enumerate()
            .filter(|&(i, &l)| l as usize == i)
            .count()
    }
}

impl LabelEngine for PropagateLabeler {
    /// Every cell is written exactly once.
    fn label_into(&mut self, img: &Bitmap, conn: Connectivity, out: &mut LabelGrid) -> EngineStats {
        self.build(img, conn);
        let (iterations, reduction_passes) = self.solve();
        let rows = img.rows();
        out.reset_dims(rows, img.cols());
        // Readout: fold each run's minimum position into its representative
        // (ascending order — `L[i] <= i`, so every representative slot is
        // final before any member reads it back), then fill runs with their
        // component minima.
        let n = self.runs.len();
        let mut components = 0usize;
        for i in 0..n {
            let l = self.labels[i] as usize;
            components += (l == i) as usize;
            if self.minpos[i] < self.minpos[l] {
                self.minpos[l] = self.minpos[i];
            }
        }
        for r in 0..rows {
            let (lo, hi) = (self.row_runs[r] as usize, self.row_runs[r + 1] as usize);
            let row = out.row_mut(r);
            row.fill(LabelGrid::BACKGROUND);
            for k in lo..hi {
                let label = self.minpos[self.labels[k] as usize];
                let sb = self.runs[k];
                let (a, b) = ((sb >> 32) as usize, (sb & 0xffff_ffff) as usize);
                row[a..=b].fill(label);
            }
        }
        EngineStats {
            components,
            runs: n,
            threads: 1,
            iterations,
            reduction_passes,
            ..EngineStats::default()
        }
    }

    fn scratch_bytes(&self) -> usize {
        use std::mem::size_of;
        self.runs.capacity() * size_of::<u64>()
            + self.row_runs.capacity() * size_of::<u32>()
            + self.edges.capacity() * size_of::<u64>()
            + self.labels.capacity() * size_of::<u32>()
            + self.minpos.capacity() * size_of::<u32>()
            + self.and_buf.capacity() * size_of::<u64>()
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
            "..#..\n##.##\n",
            "##.##\n..#..\n",
        ] {
            let img = Bitmap::from_art(art);
            for conn in [Connectivity::Four, Connectivity::Eight] {
                assert_eq!(
                    propagate_labels_conn(&img, conn),
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
                    propagate_labels_conn(&img, conn),
                    bfs_labels_conn(&img, conn),
                    "workload {name} conn={conn:?}"
                );
            }
        }
    }

    #[test]
    fn matches_oracle_on_word_boundary_widths() {
        for cols in [63usize, 64, 65, 127, 128, 130] {
            for density in [0.1, 0.5, 0.9] {
                let img = gen::uniform_random(37, cols, density, cols as u64);
                for conn in [Connectivity::Four, Connectivity::Eight] {
                    assert_eq!(
                        propagate_labels_conn(&img, conn),
                        bfs_labels_conn(&img, conn),
                        "cols={cols} density={density} conn={conn:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn matches_oracle_on_degenerate_shapes() {
        for art in ["#", "#.##.#", "#\n#\n.\n#\n"] {
            let img = Bitmap::from_art(art);
            assert_eq!(propagate_labels(&img), bfs_labels(&img), "art {art:?}");
        }
        let single_row = gen::uniform_random(1, 200, 0.5, 9);
        assert_eq!(propagate_labels(&single_row), bfs_labels(&single_row));
        let single_col = gen::uniform_random(200, 1, 0.5, 9);
        assert_eq!(propagate_labels(&single_col), bfs_labels(&single_col));
    }

    #[test]
    fn adversarial_families_converge_in_few_rounds() {
        // Hooking + flattening must make the pathological families cheap in
        // *rounds* (the plain-propagation cost would be Θ(path)): the spiral,
        // serpentine, and hilbert geodesics at n = 64 are hundreds to
        // thousands of runs long, yet the fixpoint arrives in well under
        // log²-ish round counts.
        let mut labeler = PropagateLabeler::new();
        let mut out = LabelGrid::new_background(1, 1);
        for name in ["spiral", "serpentine", "hilbert"] {
            let img = gen::by_name(name, 64, 1).unwrap();
            let stats = labeler.label_into(&img, Connectivity::Four, &mut out);
            assert_eq!(out, bfs_labels(&img), "{name}");
            assert!(
                stats.iterations <= 32,
                "{name}: {} rounds for a 64x64 frame",
                stats.iterations
            );
            assert!(stats.reduction_passes >= 1, "{name}");
        }
    }

    #[test]
    fn reused_labeler_leaves_no_stale_state() {
        let mut labeler = PropagateLabeler::new();
        let mut grid = LabelGrid::new_background(1, 1);
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
                    PropagateLabeler::new().count_components(&img, conn),
                    bfs_labels_conn(&img, conn).component_count(),
                    "workload {name} conn={conn:?}"
                );
            }
        }
    }

    #[test]
    fn eight_connectivity_bridges_only_diagonals_in_reach() {
        let touch = Bitmap::from_art("##..\n..##\n");
        let mut lab = PropagateLabeler::new();
        assert_eq!(lab.count_components(&touch, Connectivity::Four), 2);
        assert_eq!(lab.count_components(&touch, Connectivity::Eight), 1);
        let gap = Bitmap::from_art("##...\n...##\n");
        assert_eq!(lab.count_components(&gap, Connectivity::Four), 2);
        assert_eq!(lab.count_components(&gap, Connectivity::Eight), 2);
    }

    #[test]
    fn iteration_counters_report_the_fixpoint_proof() {
        // Even an empty frame runs (and counts) the one round that proves
        // convergence; a two-row ladder needs exactly one more.
        let mut lab = PropagateLabeler::new();
        let mut out = LabelGrid::new_background(1, 1);
        let empty = gen::by_name("empty", 16, 0).unwrap();
        let stats = lab.label_into(&empty, Connectivity::Four, &mut out);
        assert_eq!(stats.iterations, 1);
        assert_eq!(stats.reduction_passes, 0);
        let ladder = Bitmap::from_art("###\n###\n");
        let stats = lab.label_into(&ladder, Connectivity::Four, &mut out);
        assert_eq!(out, bfs_labels(&ladder));
        assert_eq!(stats.iterations, 2);
        assert!(stats.reduction_passes >= 1);
    }
}
