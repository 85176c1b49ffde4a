//! A SIMD hypercube machine model and a polylog-time component labeler.
//!
//! The paper's introduction contrasts the SLAP with richer networks:
//! *"Other algorithms can yield even better than O(n) time \[5, 15, 17\], but
//! only with interconnection networks that are more complicated and,
//! therefore, more costly."* Reference \[5\] is Cypher–Sanz–Snyder's hypercube
//! / shuffle-exchange labeling. No public implementation of that algorithm
//! exists; this crate reproduces the *comparison* the introduction makes —
//! polylogarithmic time bought with `n²` processors and `Θ(n² lg n)` links —
//! with two pieces:
//!
//! * [`cost`] — the standard one-word-per-link-per-step SIMD hypercube cost
//!   model, expressed as exact round counts for the collective operations
//!   (dimension exchange, bitonic sort, scan/reduce, sort-based remote
//!   access) that hypercube connectivity algorithms are built from;
//! * [`sv`] — a Shiloach–Vishkin-style hook-and-shortcut labeler over the
//!   image's pixel graph, one pixel per PE, whose every super-step is
//!   charged through the cost model. (Cypher–Sanz–Snyder reach `O(lg² n)`
//!   with bespoke merging; the sort-based S-V here runs in
//!   `O(lg n)`-ish iterations of `O(lg² n)`-round collectives — still
//!   polylog, which is what the resource comparison needs.)
//!
//! Experiment E15 runs this labeler against Algorithm CC on the SLAP and
//! tabulates time, processor count, link count, and work.

#![warn(missing_docs)]

pub mod cost;
pub mod sv;

pub use cost::{HypercubeCost, HypercubeReport};
pub use sv::{sv_labels, sv_labels_conn};
