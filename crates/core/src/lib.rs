//! Greenberg's SPAA 1995 connected-component labeling algorithm for the
//! scan line array processor (SLAP).
//!
//! The algorithm labels the 4-connected components of an `rows × cols` binary
//! image on a linear array of `cols` PEs, giving each component the minimum
//! column-major position (`col * rows + row`) over its pixels. Its structure
//! (paper Figure 2, **Algorithm CC**):
//!
//! 1. a **left-connected** labeling pass: [`passes::unionfind_pass`]
//!    (Fig. 5) groups each column's pixels into left-component sets with
//!    union–find, pipelining *relevant unions* rightward; a local find pass
//!    then resolves every pixel's set; [`passes::label_pass`] (Fig. 6)
//!    pipelines labels rightward;
//! 2. the mirror-image **right-connected** pass (implemented by running the
//!    left machinery on the horizontally flipped image);
//! 3. a local **stitch** in each PE: sequential connected components on the
//!    graph `{(leftlabel[j], rightlabel[j])}`, labeling each component with
//!    the least label seen (paper §2's consistency rule).
//!
//! Every step is executed on the `slap-machine` virtual-time simulator, so a
//! run yields both the labeling and exact step counts ([`CcMetrics`]) under
//! whichever union–find implementation and algorithm variant
//! ([`CcOptions`]) is selected — the quantities behind the paper's
//! Lemma 1/2, Theorem 3 and the §3 practical variants.
//!
//! [`aggregate`] implements Corollary 4 (component-wise folds of arbitrary
//! initial labels) and [`bitserial`] the Theorem 5 bit-link machinery.
//!
//! The crate also re-exports the *host-side* engines as [`fast`]
//! ([`fast::fast_labels`] sequential, [`fast::tiled_labels`] decomposed
//! over a tile grid whose `T × 1` shape is the strip-parallel engine) and
//! [`stream`] ([`stream::label_stream`], the bounded-memory streaming
//! engine on the out-of-core band core, whose retirement records feed the
//! [`features`] hook) — the wall-clock counterparts the simulation is measured against —
//! and generalizes the stitch argument to 2-D tile grids with hierarchical
//! pairwise-doubling seam merging in [`stitch::stitch_grid`] (a grid of one
//! column is a stack of horizontal band seams), the specification behind
//! the tiled engine's seam pass.
//!
//! The [`engine`] module is the registry of the whole-frame host engines:
//! [`registry`] enumerates every engine with its capabilities so the CLI,
//! the bench sweeps, and the differential suites dispatch from data rather
//! than per-engine match arms, and [`EngineKind::session`] boxes the
//! engine's labeler behind [`LabelEngine`] (defined in `slap_image`,
//! re-exported here with [`EngineStats`]).
//!
//! # Quick start
//!
//! ```
//! use slap_cc::{label_components, CcOptions};
//! use slap_image::{gen, bfs_labels};
//!
//! let img = gen::uniform_random(64, 64, 0.4, 7);
//! let run = label_components::<slap_unionfind::TarjanUf>(&img, &CcOptions::default());
//! assert_eq!(run.labels, bfs_labels(&img)); // exact, not just same partition
//! println!("SLAP steps: {}", run.metrics.total_steps);
//! ```

#![warn(missing_docs)]

pub mod aggregate;
pub mod bitserial;
pub mod cc;
pub mod engine;
pub mod features;
pub mod lockstep_cc;
pub mod lockstep_propagate;
pub mod passes;
pub mod runs;
pub mod spacetime;
pub mod stitch;

pub use cc::{
    label_components, label_components_kind, CcMetrics, CcOptions, CcRun, ForwardPolicy,
    PassMetrics,
};
pub use engine::{registry, EngineInfo, EngineKind, EngineStats, LabelEngine};
pub use runs::label_components_runs;
pub use slap_image::fast;
pub use slap_image::stream;
pub use slap_image::Connectivity;

/// Sentinel for "no row" / "unset label" in the passes' `u32` arrays (the
/// paper's `nil`); appears in the public `adjnext`/`adjprev` witness arrays
/// and the run tables.
pub const NIL: u32 = u32::MAX;
