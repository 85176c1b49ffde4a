//! Experiment harness reproducing every quantitative claim of the paper.
//!
//! The paper (a preliminary version) contains no measured tables or figures —
//! "the final version of this paper will report on experimental results" —
//! so the reproduction targets are its *claims*: Lemma 1/2, Theorem 3, the
//! §3 worst-case and practical-variant discussion, Corollary 4, Theorem 5,
//! the Figure 3 difficulty arguments, and the introduction's comparisons
//! against prior SLAP and mesh algorithms. Each claim is an experiment id
//! (E1–E16); ARCHITECTURE.md's paper-section-to-module map lists them, and
//! the tables the `experiments` binary prints are the measurements.
//!
//! Each `eN` function returns one or more markdown [`Table`]s; the
//! `experiments` binary prints them (`experiments all`, `experiments e3`,
//! `--quick` for smaller sweeps).

#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod json;
#[cfg(test)]
mod parallel;
pub mod propagate;
pub mod record;
pub mod reuse;
pub mod serve;
pub mod stream;
pub mod sweep;
pub mod table;
pub mod tiled;

pub use table::Table;

/// Sweep sizes: `quick` keeps every experiment under a few seconds for CI;
/// `full` is the default of the `experiments` binary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small sweeps for smoke testing.
    Quick,
    /// The sizes the `experiments` binary runs by default.
    Full,
}

impl Scale {
    /// Image sides used for the main sweeps.
    pub fn sides(self) -> &'static [usize] {
        match self {
            Scale::Quick => &[32, 64],
            Scale::Full => &[64, 128, 256, 512],
        }
    }

    /// Image sides for the more expensive baselines (naive / mesh).
    pub fn small_sides(self) -> &'static [usize] {
        match self {
            Scale::Quick => &[24, 48],
            Scale::Full => &[32, 64, 128, 256],
        }
    }
}
