//! The frame phase: each frame of the pool goes through every in-process
//! labeling path in turn, so host drift hits all of them alike.
//!
//! | metric       | path                                                          |
//! |--------------|---------------------------------------------------------------|
//! | `label4/8`   | `pbm::read` → warm `fast` session `label_into` → `component_stats` |
//! | `par4/8`     | the same with `EngineKind::Parallel.session(2)`                |
//! | `stream4`    | `PbmRowReader` → `label_stream`                               |
//! | `ooc4`       | `PbmRowReader` → warm `OutOfCoreLabeler::new(128, 1)`          |
//!
//! The traced phase adds the layer-only calls: a `PbmRowReader` drain, the
//! `fast` build alone (`count_components`), a 2×1 tiled labeler, and the
//! stream and out-of-core labelers over in-memory rows.

use crate::calib::Calib;
use crate::gate::{self, Ledger};
use crate::trace::Tracer;
use crate::workload::{FrameCounts, Inputs};
use slap_cc::{EngineKind, EngineStats, LabelEngine};
use slap_image::pbm::{self, PbmRowReader};
use slap_image::stream::{label_stream, BitmapRows, RowSource};
use slap_image::{
    bfs_labels_conn, Bitmap, ComponentInfo, Connectivity, FastLabeler, LabelGrid, OutOfCoreLabeler,
    TiledLabeler,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Threads of the parallel and tiled sessions: one per CPU of a 2-CPU
/// host, as `slapd` sizes its parallel engine.
pub const THREADS: usize = 2;
/// Band height of the out-of-core labeler, as `slapd` configures it.
pub const OOC_BAND_ROWS: usize = 128;
/// Frames every phase labels, however short its time budget.
const MIN_ITERATIONS: usize = 4;

const CONNS: [Connectivity; 2] = [Connectivity::Four, Connectivity::Eight];

/// Warm sessions and output grids, reused across every frame.
pub struct Rig {
    fast: Box<dyn LabelEngine>,
    par: Box<dyn LabelEngine>,
    tiled: TiledLabeler,
    counter: FastLabeler,
    ooc: OutOfCoreLabeler,
    /// `fast` output per connectivity, kept to compare the others against.
    fast_grids: [LabelGrid; 2],
    other_grid: LabelGrid,
}

impl Rig {
    pub fn new() -> Rig {
        Rig {
            fast: EngineKind::Fast.session(1),
            par: EngineKind::Parallel.session(THREADS),
            tiled: TiledLabeler::new(2, 1, THREADS),
            counter: FastLabeler::new(),
            ooc: OutOfCoreLabeler::new(OOC_BAND_ROWS, 1),
            fast_grids: [
                LabelGrid::new_background(1, 1),
                LabelGrid::new_background(1, 1),
            ],
            other_grid: LabelGrid::new_background(1, 1),
        }
    }

    pub fn scratch_bytes(&self) -> usize {
        self.fast.scratch_bytes()
            + self.par.scratch_bytes()
            + self.tiled.scratch_bytes()
            + self.counter.scratch_bytes()
            + self.ooc.scratch_bytes()
    }

    /// The set-up correctness gate, which also warms every session and
    /// returns each frame's exact counts from `fast`. On frame 0, `fast`
    /// equals the BFS oracle, `parallel` and `tiled` are bit-identical to
    /// `fast` at both connectivities, and the stream and out-of-core records
    /// match the `fast` count and the foreground area. The frame phase
    /// repeats the `parallel`, stream and out-of-core checks on every frame.
    pub fn gate(&mut self, inputs: &Inputs, ledger: &mut Ledger) -> Vec<[FrameCounts; 2]> {
        let mut counts = Vec::new();
        for f in &inputs.frames {
            let mut pair = [FrameCounts::default(); 2];
            for (ci, conn) in CONNS.into_iter().enumerate() {
                let st = self.fast.label_into(&f.img, conn, &mut self.fast_grids[ci]);
                pair[ci] = FrameCounts {
                    components: st.components as u64,
                    runs: st.runs as u64,
                    tiles_boundary: st.tiles.boundary,
                    tiles_interior: st.tiles.interior,
                    tiles_background: st.tiles.background,
                };
            }
            counts.push(pair);
        }
        let f = &inputs.frames[0];
        for (ci, conn) in CONNS.into_iter().enumerate() {
            let what = format!("set-up frame 0 {}-conn", conn_id(conn));
            self.fast.label_into(&f.img, conn, &mut self.fast_grids[ci]);
            let truth = bfs_labels_conn(&f.img, conn);
            ledger.check(
                gate::same_grid(&truth, &self.fast_grids[ci]),
                &format!("{what}: fast vs oracle"),
            );
            self.par.label_into(&f.img, conn, &mut self.other_grid);
            ledger.check(
                gate::same_grid(&self.fast_grids[ci], &self.other_grid),
                &format!("{what}: parallel vs fast"),
            );
            self.tiled.label_into(&f.img, conn, &mut self.other_grid);
            ledger.check(
                gate::same_grid(&self.fast_grids[ci], &self.other_grid),
                &format!("{what}: tiled vs fast"),
            );
            let built = self.counter.count_components(&f.img, conn);
            ledger.check(
                gate::same_count(built as u64, counts[0][ci].components),
                &format!("{what}: count_components vs fast"),
            );
        }
        let c4 = counts[0][0].components;
        let run =
            label_stream(&mut BitmapRows::new(&f.img), Connectivity::Four).expect("in-memory rows");
        ledger.check(
            gate::records_match(&run.components, c4, f.ones),
            "set-up frame 0: stream records",
        );
        let run = self
            .ooc
            .label_source(&mut BitmapRows::new(&f.img), Connectivity::Four)
            .expect("in-memory rows");
        ledger.check(
            gate::records_match(&run.components, c4, f.ones),
            "set-up frame 0: ooc records",
        );
        counts
    }

    /// Labels every frame of `inputs` through every path, in whole passes
    /// over the pool, for at least `budget`, timing the calibration kernel
    /// before each path. Returns the end-to-end samples by metric name, in
    /// milliseconds scaled to the reference host; with tracing on, the
    /// layer-only calls run too and `counters` collects their counts.
    #[allow(clippy::too_many_arguments)]
    pub fn phase(
        &mut self,
        inputs: &Inputs,
        expect: &[[FrameCounts; 2]],
        budget: Duration,
        t: &mut Tracer,
        calib: &mut Calib,
        ledger: &mut Ledger,
        counters: &mut Counters,
    ) -> BTreeMap<&'static str, Vec<f64>> {
        let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let start = Instant::now();
        let mut job = 0u64;
        // Whole passes over the pool, so every frame weighs the same.
        let pool = inputs.frames.len() as u64;
        while job < MIN_ITERATIONS as u64 || start.elapsed() < budget || !job.is_multiple_of(pool) {
            let fi = job as usize % inputs.frames.len();
            let f = &inputs.frames[fi];
            let exp = &expect[fi];
            for (ci, conn) in CONNS.into_iter().enumerate() {
                let name = LABEL[ci];
                calib.sample();
                let (ms, (st, comps)) = timed(t, job, name, |t| {
                    label_path(
                        t,
                        job,
                        self.fast.as_mut(),
                        FAST_SPAN[ci],
                        conn,
                        &f.p4,
                        &mut self.fast_grids[ci],
                    )
                });
                samples.entry(name).or_default().push(ms * calib.recent());
                ledger.check(
                    gate::stats_match(&comps, exp[ci].components, f.ones)
                        .and(gate::same_count(st.components as u64, exp[ci].components)),
                    name,
                );
                if t.enabled() && ci == 0 {
                    counters.mean("fast.runs", st.runs as f64);
                    counters.mean("fast.components", st.components as f64);
                    counters.mean("fast.tiles_boundary", st.tiles.boundary as f64);
                    counters.mean("fast.tiles_interior", st.tiles.interior as f64);
                    counters.mean("fast.tiles_background", st.tiles.background as f64);
                }
            }
            for (ci, conn) in CONNS.into_iter().enumerate() {
                let name = PAR[ci];
                calib.sample();
                let (ms, (_, comps)) = timed(t, job, name, |t| {
                    label_path(
                        t,
                        job,
                        self.par.as_mut(),
                        "parallel.label_into",
                        conn,
                        &f.p4,
                        &mut self.other_grid,
                    )
                });
                samples.entry(name).or_default().push(ms * calib.recent());
                ledger.check(
                    gate::stats_match(&comps, exp[ci].components, f.ones)
                        .and(gate::same_grid(&self.fast_grids[ci], &self.other_grid)),
                    name,
                );
            }
            let name = "stream4_ms";
            calib.sample();
            let (ms, run) = timed(t, job, name, |t| {
                let mut rd = PbmRowReader::new(&f.p4[..]).expect("benchmark frames are valid P4");
                let run = t.span("stream.label_stream", job, |_| {
                    label_stream(&mut rd, Connectivity::Four)
                });
                run.expect("valid raster").components
            });
            samples.entry(name).or_default().push(ms * calib.recent());
            ledger.check(gate::records_match(&run, exp[0].components, f.ones), name);
            let ooc = &mut self.ooc;
            let name = "ooc4_ms";
            calib.sample();
            let (ms, run) = timed(t, job, name, |t| {
                let mut rd = PbmRowReader::new(&f.p4[..]).expect("benchmark frames are valid P4");
                let run = t.span("ooc.label_source", job, |_| {
                    ooc.label_source(&mut rd, Connectivity::Four)
                });
                run.expect("valid raster").components
            });
            samples.entry(name).or_default().push(ms * calib.recent());
            ledger.check(gate::records_match(&run, exp[0].components, f.ones), name);
            if t.enabled() {
                self.layers(t, job, &f.img, &f.p4, exp, ledger, counters);
            }
            job += 1;
        }
        samples
    }

    /// The traced phase's layer-only calls on one frame.
    #[allow(clippy::too_many_arguments)]
    fn layers(
        &mut self,
        t: &mut Tracer,
        job: u64,
        img: &Bitmap,
        p4: &[u8],
        exp: &[FrameCounts; 2],
        ledger: &mut Ledger,
        counters: &mut Counters,
    ) {
        let rows = t.span("pbm.rows", job, |_| {
            let mut rd = PbmRowReader::new(p4).expect("benchmark frames are valid P4");
            let mut words = Vec::new();
            let mut rows = 0u64;
            while rd.next_row(&mut words).expect("valid raster") {
                black_box(&words);
                rows += 1;
            }
            rows
        });
        ledger.check(gate::same_count(rows, img.rows() as u64), "pbm.rows");
        for (ci, conn) in CONNS.into_iter().enumerate() {
            let built = t.span(BUILD[ci], job, |_| self.counter.count_components(img, conn));
            ledger.check(
                gate::same_count(built as u64, exp[ci].components),
                BUILD[ci],
            );
            t.span(TILED[ci], job, |_| {
                self.tiled.label_into(img, conn, &mut self.other_grid)
            });
            ledger.check(
                gate::same_grid(&self.fast_grids[ci], &self.other_grid),
                TILED[ci],
            );
            if ci == 0 {
                let unions: usize = self.tiled.seam_levels().iter().map(|l| l.unions).sum();
                counters.mean("tiled.seam_unions", unions as f64);
            }
        }
        let run = t.span("stream.label4", job, |_| {
            label_stream(&mut BitmapRows::new(img), Connectivity::Four).expect("in-memory rows")
        });
        counters.max(
            "stream.peak_frontier_runs",
            run.stats.peak_frontier_runs as f64,
        );
        ledger.check(
            gate::same_count(run.components.len() as u64, exp[0].components),
            "stream.label4",
        );
        let run = t.span("ooc.label4", job, |_| {
            self.ooc
                .label_source(&mut BitmapRows::new(img), Connectivity::Four)
                .expect("in-memory rows")
        });
        counters.mean("ooc.bands", run.stats.bands as f64);
        counters.max("ooc.peak_carried_runs", run.stats.peak_carried_runs as f64);
        ledger.check(
            gate::same_count(run.components.len() as u64, exp[0].components),
            "ooc.label4",
        );
    }
}

const LABEL: [&str; 2] = ["label4_ms", "label8_ms"];
const PAR: [&str; 2] = ["par4_ms", "par8_ms"];
const FAST_SPAN: [&str; 2] = ["fast.label_into4", "fast.label_into8"];
const BUILD: [&str; 2] = ["fast.build4", "fast.build8"];
const TILED: [&str; 2] = ["tiled.label4", "tiled.label8"];

/// Times one end-to-end path: `f` runs inside a span named after the
/// metric, and its wall time is returned in milliseconds.
pub fn timed<T>(
    t: &mut Tracer,
    job: u64,
    name: &'static str,
    f: impl FnOnce(&mut Tracer) -> T,
) -> (f64, T) {
    let t0 = Instant::now();
    let out = t.span(name, job, f);
    (t0.elapsed().as_secs_f64() * 1e3, out)
}

/// The `slap label` path without stdout: parse, label, per-component stats.
fn label_path(
    t: &mut Tracer,
    job: u64,
    engine: &mut dyn LabelEngine,
    engine_span: &'static str,
    conn: Connectivity,
    p4: &[u8],
    grid: &mut LabelGrid,
) -> (EngineStats, Vec<ComponentInfo>) {
    let img = t.span("pbm.read", job, |_| {
        pbm::read(p4).expect("benchmark frames are valid P4")
    });
    let st = t.span(engine_span, job, |_| engine.label_into(&img, conn, grid));
    let comps = t.span("labels.stats", job, |_| grid.component_stats());
    (st, comps)
}

pub fn conn_id(conn: Connectivity) -> u32 {
    match conn {
        Connectivity::Four => 4,
        Connectivity::Eight => 8,
    }
}

/// Per-layer counts gathered in the traced run: a mean per frame or a
/// maximum.
#[derive(Debug, Default)]
pub struct Counters {
    sums: BTreeMap<&'static str, (f64, u64)>,
    maxes: BTreeMap<&'static str, f64>,
}

impl Counters {
    pub fn mean(&mut self, name: &'static str, v: f64) {
        let e = self.sums.entry(name).or_default();
        e.0 += v;
        e.1 += 1;
    }

    pub fn max(&mut self, name: &'static str, v: f64) {
        let e = self.maxes.entry(name).or_insert(v);
        *e = e.max(v);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.sums
            .get(name)
            .map(|&(s, n)| s / n as f64)
            .or_else(|| self.maxes.get(name).copied())
    }
}
