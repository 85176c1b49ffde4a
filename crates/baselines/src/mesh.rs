//! The n²-processor mesh baselines of the paper's introduction.
//!
//! * [`mesh_min_propagation`] — exact 4-connected labeling by iterated
//!   minimum exchange with the four neighbors; converges in
//!   O(internal diameter) rounds (O(n) for compact shapes, Θ(n²) for
//!   spirals). One PE per pixel.
//! * [`levialdi_count`] — Levialdi's shrinking algorithm \[16\] on the
//!   `mesh-machine` simulator: each iteration applies the local shrink
//!   operator (components never merge or split) and a component is counted
//!   the moment it disappears as an isolated pixel. Components here are
//!   **8-connected** — Levialdi's operator is defined for 8-connectivity —
//!   so E6 uses it on workloads where the 4- and 8-connected counts
//!   coincide, or reports both counts (a documented substitution).
//!
//! Both report machine rounds and the `rounds × n²` work product that the
//! paper's resource argument weighs against the SLAP's `n` processors.

use mesh_machine::{run_mesh, CellIo, CellProgram, CellStatus, Dir, MeshReport};
use slap_image::{Bitmap, LabelGrid};

/// Rounds/processors accounting for the plain-loop mesh labelers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MeshRounds {
    /// Synchronous rounds until fixpoint (including the confirming round).
    pub rounds: u64,
    /// Processors used (`rows * cols`).
    pub processors: usize,
}

impl MeshRounds {
    /// Time × processors.
    pub fn work(&self) -> u64 {
        self.rounds * self.processors as u64
    }
}

/// Labels `img` by synchronous min-label propagation on an `rows × cols`
/// mesh (one PE per pixel): every round each foreground cell adopts the
/// minimum of its own and its 4-neighbors' labels. Output follows the
/// minimum-position convention, so it is oracle-exact.
pub fn mesh_min_propagation(img: &Bitmap) -> (LabelGrid, MeshRounds) {
    let (rows, cols) = (img.rows(), img.cols());
    const BG: u32 = u32::MAX;
    let mut cur: Vec<u32> = (0..rows * cols)
        .map(|i| {
            let (r, c) = (i / cols, i % cols);
            if img.get(r, c) {
                (c * rows + r) as u32
            } else {
                BG
            }
        })
        .collect();
    let mut next = cur.clone();
    let mut rounds = 0u64;
    loop {
        rounds += 1;
        let mut changed = false;
        for r in 0..rows {
            for c in 0..cols {
                let i = r * cols + c;
                if cur[i] == BG {
                    continue;
                }
                let mut best = cur[i];
                if r > 0 && cur[i - cols] < best && cur[i - cols] != BG {
                    best = cur[i - cols];
                }
                if r + 1 < rows && cur[i + cols] < best {
                    best = best.min(mask_bg(cur[i + cols]));
                }
                if c > 0 && cur[i - 1] < best {
                    best = best.min(mask_bg(cur[i - 1]));
                }
                if c + 1 < cols && cur[i + 1] < best {
                    best = best.min(mask_bg(cur[i + 1]));
                }
                next[i] = best;
                changed |= best != cur[i];
            }
        }
        std::mem::swap(&mut cur, &mut next);
        if !changed {
            break;
        }
    }
    let mut out = LabelGrid::new_background(rows, cols);
    for r in 0..rows {
        for c in 0..cols {
            if cur[r * cols + c] != BG {
                out.set(r, c, cur[r * cols + c]);
            }
        }
    }
    (
        out,
        MeshRounds {
            rounds,
            processors: rows * cols,
        },
    )
}

#[inline]
fn mask_bg(v: u32) -> u32 {
    v // BG is u32::MAX: never smaller than a real label
}

/// Levialdi shrinking cell. One shrink iteration takes two machine rounds:
///
/// * **even round `2i`**: (for `i > 0`) consume the east/west composite
///   words relayed last round — they complete the 3×3 snapshot of iteration
///   `i−1` (missing directions at the mesh border read as 0) — and apply the
///   shrink operator; then broadcast the (new) bit to all four neighbors;
/// * **odd round `2i+1`**: gather the four plain bits, relay the composite
///   `(bit, north, south)` east and west so diagonals are available next
///   round.
struct LevialdiCell {
    bit: bool,
    n: bool,
    s: bool,
    round: u32,
    total_rounds: u32,
    vanished_components: u32,
}

/// Packed link word: bit 0 = cell bit, bit 1 = its north input, bit 2 = its
/// south input.
type Packed = u8;

impl CellProgram for LevialdiCell {
    type Word = Packed;

    fn tick(&mut self, _r: usize, _c: usize, io: &mut CellIo<Packed>) -> CellStatus {
        if self.round.is_multiple_of(2) {
            if self.round > 0 {
                let wp = io.recv(Dir::West).unwrap_or(0);
                let ep = io.recv(Dir::East).unwrap_or(0);
                let w = wp & 1 != 0;
                let nw = wp & 2 != 0;
                let sw = wp & 4 != 0;
                let e = ep & 1 != 0;
                let ne = ep & 2 != 0;
                let se = ep & 4 != 0;
                let eight = self.n || self.s || e || w || ne || nw || se || sw;
                if self.bit && !eight {
                    // isolated pixel: its component disappears this iteration
                    self.vanished_components += 1;
                }
                self.bit = if self.bit {
                    w || self.n || nw
                } else {
                    w && self.n
                };
            }
            io.send(Dir::North, self.bit as u8);
            io.send(Dir::South, self.bit as u8);
            io.send(Dir::East, self.bit as u8);
            io.send(Dir::West, self.bit as u8);
        } else {
            self.n = io.recv(Dir::North).map(|p| p & 1 != 0).unwrap_or(false);
            self.s = io.recv(Dir::South).map(|p| p & 1 != 0).unwrap_or(false);
            // consume the east/west plain bits so the registers are clean for
            // next round's composites
            let _ = io.recv(Dir::East);
            let _ = io.recv(Dir::West);
            let packed = (self.bit as u8) | ((self.n as u8) << 1) | ((self.s as u8) << 2);
            io.send(Dir::East, packed);
            io.send(Dir::West, packed);
        }
        self.round += 1;
        if self.round >= self.total_rounds {
            CellStatus::Done
        } else {
            CellStatus::Running
        }
    }
}

/// Counts the 8-connected components of `img` with Levialdi shrinking on the
/// mesh simulator. Returns the count and the mesh accounting (2 machine
/// rounds per shrink iteration; `rows + cols + 2` iterations suffice because
/// the minimum anti-diagonal of every component advances each iteration).
pub fn levialdi_count(img: &Bitmap) -> (usize, MeshReport) {
    let (rows, cols) = (img.rows(), img.cols());
    let iterations = (rows + cols + 2) as u32;
    let mut cells: Vec<LevialdiCell> = (0..rows * cols)
        .map(|i| LevialdiCell {
            bit: img.get(i / cols, i % cols),
            n: false,
            s: false,
            round: 0,
            total_rounds: 2 * iterations,
            vanished_components: 0,
        })
        .collect();
    let report = run_mesh(rows, cols, &mut cells, 8 * (rows + cols + 4) as u64);
    let count = cells.iter().map(|c| c.vanished_components as usize).sum();
    (count, report)
}

/// Counts 8-connected components sequentially (reference for
/// [`levialdi_count`]).
pub fn count_components_8conn(img: &Bitmap) -> usize {
    let (rows, cols) = (img.rows(), img.cols());
    let mut seen = vec![false; rows * cols];
    let mut count = 0usize;
    let mut stack = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if !img.get(r, c) || seen[r * cols + c] {
                continue;
            }
            count += 1;
            seen[r * cols + c] = true;
            stack.push((r as isize, c as isize));
            while let Some((pr, pc)) = stack.pop() {
                for dr in -1..=1 {
                    for dc in -1..=1 {
                        let (nr, nc) = (pr + dr, pc + dc);
                        if nr < 0 || nc < 0 || nr >= rows as isize || nc >= cols as isize {
                            continue;
                        }
                        let (nr, nc) = (nr as usize, nc as usize);
                        if img.get(nr, nc) && !seen[nr * cols + nc] {
                            seen[nr * cols + nc] = true;
                            stack.push((nr as isize, nc as isize));
                        }
                    }
                }
            }
        }
    }
    count
}

#[cfg(test)]
mod tests {
    use super::*;
    use slap_image::{fast_labels, gen};

    #[test]
    fn min_propagation_matches_oracle() {
        for name in ["random50", "fig3a", "comb", "blobs", "checker"] {
            let img = gen::by_name(name, 24, 9).unwrap();
            let (labels, _) = mesh_min_propagation(&img);
            assert_eq!(labels, fast_labels(&img), "workload {name}");
        }
    }

    #[test]
    fn min_propagation_rounds_scale_with_diameter() {
        let compact = gen::full(32, 32);
        let (_, fast) = mesh_min_propagation(&compact);
        let twisty = gen::spiral(32, 32, 3);
        let (_, slow) = mesh_min_propagation(&twisty);
        assert!(fast.rounds < 70);
        assert!(slow.rounds > 100, "spiral took only {} rounds", slow.rounds);
    }

    #[test]
    fn levialdi_counts_simple_patterns() {
        for (art, expect) in [
            ("#", 1),
            (".", 0),
            ("#.#\n...\n#.#\n", 4), // diagonal-free isolated pixels
            ("###\n###\n", 1),
            ("##.\n##.\n..#\n", 1), // 8-connected via diagonal!
        ] {
            let img = Bitmap::from_art(art);
            let (count, _) = levialdi_count(&img);
            assert_eq!(count, expect, "art:\n{art}");
        }
    }

    #[test]
    fn levialdi_matches_8conn_reference_on_generators() {
        for name in ["random25", "random50", "blobs", "hstripes", "checker"] {
            let img = gen::by_name(name, 20, 13).unwrap();
            let (count, _) = levialdi_count(&img);
            assert_eq!(
                count,
                count_components_8conn(&img),
                "workload {name}:\n{img:?}"
            );
        }
    }

    #[test]
    fn levialdi_rounds_are_linear_in_side() {
        let img = gen::uniform_random(24, 24, 0.4, 2);
        let (_, report) = levialdi_count(&img);
        assert!(report.rounds <= 8 * (24 + 24 + 4) as u64);
        assert_eq!(report.processors, 24 * 24);
    }

    #[test]
    fn mesh_work_product_dwarfs_slap() {
        // the intro's resource argument in one assertion: n² PEs × Θ(n)
        // rounds is ω(n) × SLAP's n PEs
        let img = gen::uniform_random(32, 32, 0.5, 3);
        let (_, mesh) = mesh_min_propagation(&img);
        assert!(mesh.work() > 32 * 32 * 10);
    }
}
