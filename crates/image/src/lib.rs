//! Binary images, workload generators, and labeling oracles for the
//! reproduction of Greenberg, *Finding Connected Components on a Scan Line
//! Array Processor* (SPAA 1995).
//!
//! The paper labels the connected components of an `n × n` binary image
//! (4-connectivity: two 1-pixels are connected when a path of horizontally or
//! vertically adjacent 1-pixels joins them). This crate provides:
//!
//! * [`Bitmap`] — a bit-packed binary image (rectangular `rows × cols`; the
//!   paper's square `n × n` is the common case) plus [`Columns`], the
//!   column-major view a SLAP processing element works from.
//! * [`LabelGrid`] — per-pixel component labels with the paper's convention:
//!   the label of a component is the minimum *column-major position*
//!   (`col * rows + row`) over its pixels; background pixels carry
//!   [`LabelGrid::BACKGROUND`].
//! * [`oracle`] — a sequential flood-fill reference labeler: the *gold*
//!   ground truth the fast engine is differentially tested against.
//! * [`fast`] — the word-parallel run-based labeling engine, bit-identical
//!   to the oracle and several times faster; the default reference the
//!   differential suites and benchmarks compare against. Every whole-frame
//!   labeler here implements [`LabelEngine`], whose `label_into` returns the
//!   call's [`EngineStats`]. Its
//!   [`fast::tiled`] submodule is the decomposed engine that scales with
//!   cores: a 2-D tile grid labeled on scoped worker threads, seams merged
//!   hierarchically over the run universe (its `T × 1` shape is the
//!   strip-parallel engine), and [`fast::ooc`] streams frames taller than
//!   memory through it one band of tiles at a time.
//! * [`stream`] — the **streaming** API over that band core: rows arrive
//!   from a [`RowSource`] ([`label_stream`]), memory stays
//!   `O(band × cols + live components)` instead of `O(rows × cols)`, and
//!   finished components retire with their feature records at the end of
//!   the first band they no longer touch — the host-side mirror of the
//!   paper's one-scan-line-per-beat input discipline.
//! * [`gen`] — deterministic workload generators covering the benign, typical
//!   and adversarial image families the paper reasons about (including the
//!   Figure 3(a)/(b) patterns and the Theorem 5 even-rows family).
//! * [`pbm`] — plain/raw PBM (P1/P4) input and output so workloads can be
//!   exchanged with external tools; [`pbm::PbmRowReader`] streams rows
//!   incrementally from any reader for the streaming engine.

#![warn(missing_docs)]

pub mod bitmap;
pub mod connectivity;
pub mod fast;
pub mod framing;
pub mod gen;
pub mod labels;
mod live;
pub mod morph;
pub mod oracle;
pub mod pbm;
pub mod stream;

pub use bitmap::{Bitmap, Columns};
pub use connectivity::Connectivity;
pub use fast::{
    fast_component_count, fast_labels, fast_labels_conn, tiled_labels, tiled_labels_conn,
    EngineStats, FastLabeler, LabelEngine, OocRun, OocStats, OutOfCoreLabeler, SeamLevel,
    TileStats, TiledLabeler,
};
pub use labels::{ComponentInfo, LabelGrid};
pub use oracle::{bfs_labels, bfs_labels_conn, BfsOracle};
pub use stream::{label_stream, BitmapRows, RetiredComponent, RowSource, STREAM_BAND_ROWS};
