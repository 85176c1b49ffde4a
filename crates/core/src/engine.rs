//! The unified host-engine layer: one trait, persistent sessions, and a
//! registry-driven dispatch surface.
//!
//! The workspace has five whole-frame host labeling engines — the BFS gold
//! oracle, the word-parallel [`fast`](crate::fast) engine, its
//! strip-parallel and 2-D tiled decompositions (one tiled engine: strips
//! are its `T × 1` shape), and the iterative label-equivalence propagation
//! engine — and, as the two-pass parallel CCL literature observes (Gupta et
//! al., arXiv:1606.05973), they all share one skeleton: *group foreground
//! into equivalence classes, then resolve every pixel's class to the
//! component minimum*. This module names that skeleton in the type system.
//! The bounded-memory streaming labeler is not one of them: it emits
//! feature records, never a grid, and is driven directly
//! ([`slap_image::label_stream`], [`slap_image::OutOfCoreLabeler`]).
//!
//! * [`LabelEngine`] — the common interface: `label_into(&mut self, img,
//!   conn, out) -> EngineStats`. Implementations are **sessions**: each owns
//!   its scratch arenas (run tables, union–find nodes, per-tile pools) and
//!   reuses them across calls, so a warm session in steady state performs
//!   **zero heap allocation** per frame — the difference the `slap-bench
//!   reuse` sweep records.
//! * [`BfsSession`], [`FastSession`], [`TiledSession`],
//!   [`PropagateSession`] — the engines behind the trait (`parallel` and
//!   `tiled` are two shapes of one [`TiledSession`]). All produce
//!   **bit-identical** output (component minima are
//!   decomposition-invariant), which the `engine_matrix` differential
//!   harness asserts across every registered engine × workload family ×
//!   connectivity.
//! * [`EngineKind`] + [`registry`] — the dispatch layer: every engine
//!   enumerated with the capabilities its consumers read (thread scaling),
//!   so the `slap` CLI's `--engine` flag, the bench sweeps and the
//!   differential suites pick engines from *data* instead of hand-rolled
//!   match arms. Every engine supports both connectivities.

use slap_image::fast::{FastLabeler, PropagateLabeler, TiledLabeler};
use slap_image::{BfsOracle, Bitmap, Connectivity, LabelGrid, TileStats};

/// What one [`LabelEngine::label_into`] call observed. Cheap to produce
/// (derived from state the engines already maintain) and uniform across
/// engines, so sweeps and reports can print one table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Number of connected components labeled.
    pub components: usize,
    /// Size of the run universe the engine worked over (`0` for the
    /// pixel-probing BFS oracle, which has no run decomposition).
    pub runs: usize,
    /// Worker threads used for this call (`1` for sequential engines).
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

/// A persistent labeling session: the unified interface over every host
/// engine.
///
/// A session is stateful scratch, not configuration — create one, then feed
/// it any number of images of any dimensions and either connectivity. The
/// contract every implementation upholds:
///
/// * **bit-identity** — the output grid equals
///   [`slap_image::bfs_labels_conn`] exactly (component minima, not merely
///   the same partition);
/// * **reuse** — scratch arenas persist across calls; once every arena has
///   reached its high-water mark ([`LabelEngine::scratch_bytes`] stable), a
///   call performs no heap allocation;
/// * **isolation** — no state leaks between calls: a warm session's output
///   is bit-identical to a fresh one's for every input.
pub trait LabelEngine {
    /// Which registered engine this session is.
    fn kind(&self) -> EngineKind;

    /// Labels `img` into `out` (re-dimensioned as needed; every cell
    /// written) and reports what the call observed.
    fn label_into(&mut self, img: &Bitmap, conn: Connectivity, out: &mut LabelGrid) -> EngineStats;

    /// Total bytes of scratch capacity currently reserved — the session's
    /// arena high-water mark. Tests assert warm calls perform zero
    /// reallocations by checking this is stable across repeated inputs.
    fn scratch_bytes(&self) -> usize;

    /// Worker threads this session labels with (`1` unless multithreaded).
    fn threads(&self) -> usize {
        1
    }
}

/// Session over the sequential BFS flood-fill gold oracle
/// ([`BfsOracle`]): per-pixel probing, the reference every other engine is
/// differentially tested against.
#[derive(Debug, Default)]
pub struct BfsSession {
    oracle: BfsOracle,
}

impl BfsSession {
    /// Creates a session with empty (growable) scratch.
    pub fn new() -> Self {
        BfsSession::default()
    }
}

impl LabelEngine for BfsSession {
    fn kind(&self) -> EngineKind {
        EngineKind::Bfs
    }

    fn label_into(&mut self, img: &Bitmap, conn: Connectivity, out: &mut LabelGrid) -> EngineStats {
        let components = self.oracle.label_into(img, conn, out);
        EngineStats {
            components,
            threads: 1,
            ..EngineStats::default()
        }
    }

    fn scratch_bytes(&self) -> usize {
        self.oracle.scratch_bytes()
    }
}

/// Session over the word-parallel run-based fast engine
/// ([`FastLabeler`]): the sequential hot path and default choice.
#[derive(Debug, Default)]
pub struct FastSession {
    labeler: FastLabeler,
}

impl FastSession {
    /// Creates a session with empty (growable) scratch.
    pub fn new() -> Self {
        FastSession::default()
    }
}

impl LabelEngine for FastSession {
    fn kind(&self) -> EngineKind {
        EngineKind::Fast
    }

    fn label_into(&mut self, img: &Bitmap, conn: Connectivity, out: &mut LabelGrid) -> EngineStats {
        self.labeler.label_into(img, conn, out);
        EngineStats {
            components: self.labeler.last_components(),
            runs: self.labeler.last_runs(),
            threads: 1,
            tiles: self.labeler.last_tile_stats(),
            ..EngineStats::default()
        }
    }

    fn scratch_bytes(&self) -> usize {
        self.labeler.scratch_bytes()
    }
}

/// Session over the 2-D tiled engine ([`TiledLabeler`]): workers own
/// rectangular tiles of a `tiles_y × tiles_x` grid, and the seams merge
/// hierarchically in pairwise-doubling order — vertical column boundaries
/// first, then full-width band seams. It serves two registry kinds:
/// [`EngineKind::Tiled`] and [`EngineKind::Parallel`], the `threads × 1`
/// strip shape.
#[derive(Debug)]
pub struct TiledSession {
    labeler: TiledLabeler,
    kind: EngineKind,
}

impl TiledSession {
    /// Creates a session labeling on a `tiles_y × tiles_x` grid with
    /// `threads` workers (all clamped to ≥ 1).
    pub fn new(tiles_y: usize, tiles_x: usize, threads: usize) -> Self {
        let labeler = TiledLabeler::new(tiles_y, tiles_x, threads);
        let (tiles_y, tiles_x) = labeler.tiles();
        TiledSession {
            labeler,
            kind: EngineKind::Tiled { tiles_x, tiles_y },
        }
    }
}

impl LabelEngine for TiledSession {
    fn kind(&self) -> EngineKind {
        self.kind
    }

    fn label_into(&mut self, img: &Bitmap, conn: Connectivity, out: &mut LabelGrid) -> EngineStats {
        self.labeler.label_into(img, conn, out);
        EngineStats {
            components: self.labeler.last_components(),
            runs: self.labeler.last_runs(),
            threads: self.labeler.threads(),
            tiles: self.labeler.last_tile_stats(),
            ..EngineStats::default()
        }
    }

    fn scratch_bytes(&self) -> usize {
        self.labeler.scratch_bytes()
    }

    fn threads(&self) -> usize {
        self.labeler.threads()
    }
}

/// Session over the iterative label-equivalence propagation engine
/// ([`PropagateLabeler`]): GPU-style alternating relaxation sweeps with
/// pointer-jumping reduction between rounds — the flat, data-parallel
/// contrast to the direct two-pass engines, reporting its convergence
/// behavior through [`EngineStats::iterations`] and
/// [`EngineStats::reduction_passes`].
#[derive(Debug, Default)]
pub struct PropagateSession {
    labeler: PropagateLabeler,
}

impl PropagateSession {
    /// Creates a session with empty (growable) scratch.
    pub fn new() -> Self {
        PropagateSession::default()
    }
}

impl LabelEngine for PropagateSession {
    fn kind(&self) -> EngineKind {
        EngineKind::Propagate
    }

    fn label_into(&mut self, img: &Bitmap, conn: Connectivity, out: &mut LabelGrid) -> EngineStats {
        self.labeler.label_into(img, conn, out);
        EngineStats {
            components: self.labeler.last_components(),
            runs: self.labeler.last_runs(),
            threads: 1,
            iterations: self.labeler.last_iterations(),
            reduction_passes: self.labeler.last_reduction_passes(),
            ..EngineStats::default()
        }
    }

    fn scratch_bytes(&self) -> usize {
        self.labeler.scratch_bytes()
    }
}

/// The registered host engines.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// Sequential BFS flood fill (the gold oracle).
    Bfs,
    /// Word-parallel run-based two-pass (the sequential hot path).
    Fast,
    /// Strip-parallel two-pass with seam stitching (scales with cores): the
    /// tiled engine on a `threads × 1` grid.
    Parallel,
    /// 2-D tiled two-pass with hierarchical seam merging. The shape is part
    /// of the kind; [`EngineKind::parse`] yields the canonical 2×2 grid.
    Tiled {
        /// Tile columns.
        tiles_x: usize,
        /// Tile rows.
        tiles_y: usize,
    },
    /// Iterative label-equivalence propagation (GPU-style relaxation rounds
    /// with pointer-jumping reduction).
    Propagate,
}

impl EngineKind {
    /// Every registered kind, in registry order — **derived from the
    /// registry rows** at compile time, so adding an engine is a one-site
    /// change (write its [`EngineInfo`] row; `ALL`, [`EngineKind::parse`],
    /// the CLI's engine list, and every registry-driven harness follow).
    /// Parameterized kinds appear with their canonical shape (`tiled` as
    /// the 2×2 grid).
    pub const ALL: [EngineKind; REGISTRY_ROWS.len()] = {
        let mut all = [EngineKind::Bfs; REGISTRY_ROWS.len()];
        let mut i = 0;
        while i < REGISTRY_ROWS.len() {
            all[i] = REGISTRY_ROWS[i].kind;
            i += 1;
        }
        all
    };

    /// Short stable name (accepted by [`EngineKind::parse`] and the CLI's
    /// `--engine` flag). Every shape of a parameterized kind shares one
    /// name — the shape travels in the variant, not the string.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Bfs => "bfs",
            EngineKind::Fast => "fast",
            EngineKind::Parallel => "parallel",
            EngineKind::Tiled { .. } => "tiled",
            EngineKind::Propagate => "propagate",
        }
    }

    /// Parses an engine name as printed by [`EngineKind::name`].
    /// Parameterized kinds come back in canonical shape (use struct-update
    /// syntax or the CLI's `--tiles` flag to pick another).
    pub fn parse(s: &str) -> Option<EngineKind> {
        EngineKind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// This kind's registry entry. Lookup is by name, so every shape of a
    /// parameterized kind maps to its one registry row.
    pub fn info(self) -> &'static EngineInfo {
        REGISTRY
            .iter()
            .find(|row| row.kind.name() == self.name())
            .expect("every kind is registered")
    }

    /// Opens a fresh session of this engine. `threads` is honored by
    /// multithreaded engines and ignored (as documented in the registry) by
    /// sequential ones.
    pub fn session(self, threads: usize) -> Box<dyn LabelEngine> {
        match self {
            EngineKind::Bfs => Box::new(BfsSession::new()),
            EngineKind::Fast => Box::new(FastSession::new()),
            // Full-width strips, one worker each.
            EngineKind::Parallel => Box::new(TiledSession {
                labeler: TiledLabeler::new(threads, 1, threads),
                kind: EngineKind::Parallel,
            }),
            EngineKind::Tiled { tiles_x, tiles_y } => {
                Box::new(TiledSession::new(tiles_y, tiles_x, threads))
            }
            EngineKind::Propagate => Box::new(PropagateSession::new()),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One registry row: an engine and its capabilities.
#[derive(Debug)]
pub struct EngineInfo {
    /// The engine.
    pub kind: EngineKind,
    /// One-line description for `--engine` help and docs.
    pub description: &'static str,
    /// Whether the engine scales with a `threads` parameter.
    pub multithreaded: bool,
}

/// The registry rows: **the** single site where an engine is added.
/// [`EngineKind::ALL`] (and through it [`EngineKind::parse`], the CLI's
/// engine listing, and the registry-driven suites) derive from this array
/// at compile time.
const REGISTRY_ROWS: [EngineInfo; 5] = [
    EngineInfo {
        kind: EngineKind::Bfs,
        description: "sequential BFS flood fill — the gold reference oracle",
        multithreaded: false,
    },
    EngineInfo {
        kind: EngineKind::Fast,
        description: "word-parallel run-based two-pass — the sequential hot path",
        multithreaded: false,
    },
    EngineInfo {
        kind: EngineKind::Parallel,
        description: "tiled two-pass on threads × 1 full-width strips — scales with cores",
        multithreaded: true,
    },
    EngineInfo {
        kind: EngineKind::Tiled {
            tiles_x: 2,
            tiles_y: 2,
        },
        description: "2-D tiled two-pass with hierarchical seam merging — perimeter-bounded seams",
        multithreaded: true,
    },
    EngineInfo {
        kind: EngineKind::Propagate,
        description: "iterative label-equivalence propagation — GPU-style relaxation rounds",
        multithreaded: false,
    },
];

static REGISTRY: [EngineInfo; REGISTRY_ROWS.len()] = REGISTRY_ROWS;

/// Enumerates every registered engine with its capabilities, in
/// [`EngineKind::ALL`] order. The single source of truth the CLI, the bench
/// sweeps, and the differential harness dispatch from.
pub fn registry() -> &'static [EngineInfo] {
    &REGISTRY
}

#[cfg(test)]
mod tests {
    use super::*;
    use slap_image::{bfs_labels_conn, gen};

    #[test]
    fn registry_covers_every_kind_exactly_once() {
        assert_eq!(registry().len(), EngineKind::ALL.len());
        for (row, kind) in registry().iter().zip(EngineKind::ALL) {
            assert_eq!(row.kind, kind);
            assert_eq!(kind.info().kind, kind);
            assert_eq!(EngineKind::parse(kind.name()), Some(kind));
            assert!(!row.description.is_empty());
        }
        assert_eq!(EngineKind::parse("oracle"), None);
    }

    #[test]
    fn every_session_matches_the_oracle_and_reports_sane_stats() {
        let img = gen::by_name("blobs", 37, 5).unwrap();
        for info in registry() {
            let mut session = info.kind.session(3);
            let mut grid = LabelGrid::new_background(1, 1);
            for conn in [Connectivity::Four, Connectivity::Eight] {
                let truth = bfs_labels_conn(&img, conn);
                let stats = session.label_into(&img, conn, &mut grid);
                assert_eq!(grid, truth, "{} {conn}", info.kind);
                assert_eq!(
                    stats.components,
                    truth.component_count(),
                    "{} {conn}",
                    info.kind
                );
                assert_eq!(stats.threads, session.threads(), "{}", info.kind);
                if info.kind != EngineKind::Bfs {
                    assert!(stats.runs > 0, "{} reports its run universe", info.kind);
                }
                if info.kind == EngineKind::Propagate {
                    assert!(stats.iterations >= 1, "propagate counts its rounds");
                } else {
                    assert_eq!(stats.iterations, 0, "{} is not iterative", info.kind);
                    assert_eq!(stats.reduction_passes, 0, "{}", info.kind);
                }
            }
        }
    }

    #[test]
    fn sessions_reach_a_stable_scratch_watermark() {
        // Two warm-up passes over the frame set (double-buffered arenas can
        // need a second pass for both halves to hit their highs), then the
        // steady state: further passes must not grow any arena — the
        // zero-allocation regime the reuse bench records.
        let frames: Vec<_> = ["random50", "checker", "blobs"]
            .iter()
            .map(|name| gen::by_name(name, 48, 9).unwrap())
            .collect();
        for info in registry() {
            let mut session = info.kind.session(2);
            let mut grid = LabelGrid::new_background(1, 1);
            for _ in 0..2 {
                for img in &frames {
                    session.label_into(img, Connectivity::Four, &mut grid);
                }
            }
            let watermark = session.scratch_bytes();
            assert!(watermark > 0, "{} owns scratch arenas", info.kind);
            for img in &frames {
                session.label_into(img, Connectivity::Four, &mut grid);
            }
            assert_eq!(
                session.scratch_bytes(),
                watermark,
                "{}: warm repeat of a seen frame set must not allocate",
                info.kind
            );
        }
    }

    #[test]
    fn parallel_session_honors_thread_counts() {
        let img = gen::by_name("maze", 32, 3).unwrap();
        let truth = bfs_labels_conn(&img, Connectivity::Four);
        for t in [0usize, 1, 2, 4, 8] {
            let mut session = EngineKind::Parallel.session(t);
            assert_eq!(session.kind(), EngineKind::Parallel);
            assert_eq!(session.threads(), t.max(1));
            let mut grid = LabelGrid::new_background(1, 1);
            let stats = session.label_into(&img, Connectivity::Four, &mut grid);
            assert_eq!(grid, truth, "threads={t}");
            assert_eq!(stats.threads, t.max(1));
        }
    }
}
