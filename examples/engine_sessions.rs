//! Warm-session batch labeling through the engine registry.
//!
//! ```sh
//! cargo run --release --example engine_sessions -- [workload] [n] [frames]
//! # e.g.
//! cargo run --release --example engine_sessions -- random50 1024 8
//! ```
//!
//! Opens one persistent labeler per registered engine
//! (`slap_cc::engine::registry()`), feeds every one the same batch of
//! frames twice — once cold-ish (first sight of each frame shape) and once
//! warm — and prints per-engine stats: components, run-universe size,
//! wall-clock per frame, and the scratch high-water mark, demonstrating
//!
//! * **dispatch from data**: the loop below names no engine; add one to the
//!   registry and it appears in the table;
//! * **bit-identity**: every engine's grid equals the BFS oracle's exactly;
//! * **reuse**: the second pass is faster and the `scratch_bytes` watermark
//!   stops moving — warm labelers grow no arena (`tests/alloc_count.rs`
//!   counts the allocations themselves: none on the sequential engines,
//!   none frame-sized on the tiled one).

use slap_repro::cc::engine::registry;
use slap_repro::image::{gen, Bitmap, Connectivity, LabelGrid};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = args.first().map(String::as_str).unwrap_or("random50");
    let n: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(512);
    let frames: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(6);

    // A batch of same-family frames with varying seeds — the steady-state
    // serving shape: same dimensions, different content.
    let batch: Vec<Bitmap> = (0..frames)
        .map(|i| gen::by_name(workload, n, i as u64).expect("workload"))
        .collect();

    println!("batch: {frames} × {workload} {n}x{n}, 4-connectivity\n");
    println!(
        "{:<9} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "engine", "components", "runs", "cold ms/fr", "warm ms/fr", "scratch KiB"
    );

    let truth: Vec<LabelGrid> = {
        let mut session = slap_repro::cc::engine::EngineKind::Bfs.session(1);
        batch
            .iter()
            .map(|img| {
                let mut g = LabelGrid::new_background(1, 1);
                session.label_into(img, Connectivity::Four, &mut g);
                g
            })
            .collect()
    };

    for info in registry() {
        let mut session = info.kind.session(4);
        let mut grid = LabelGrid::new_background(1, 1);
        let mut last = Default::default();

        // Pass 1: every frame is new to the session — arenas grow to their
        // high-water marks here.
        let t0 = Instant::now();
        for (img, want) in batch.iter().zip(&truth) {
            last = session.label_into(img, Connectivity::Four, &mut grid);
            assert_eq!(&grid, want, "{} diverged from the oracle", info.kind);
        }
        let cold = t0.elapsed().as_secs_f64() * 1e3 / frames as f64;

        // Settle the arenas (double-buffered scratch can need a second
        // sight of each frame), then freeze the watermark.
        for img in &batch {
            session.label_into(img, Connectivity::Four, &mut grid);
        }
        let watermark = session.scratch_bytes();

        // Pass 2: warm — same frames, no arena grows (watermark frozen).
        let t1 = Instant::now();
        for img in &batch {
            session.label_into(img, Connectivity::Four, &mut grid);
        }
        let warm = t1.elapsed().as_secs_f64() * 1e3 / frames as f64;
        assert_eq!(
            session.scratch_bytes(),
            watermark,
            "{}: a warm pass over seen frames must not grow an arena",
            info.kind
        );

        println!(
            "{:<9} {:>10} {:>10} {:>12.3} {:>12.3} {:>12}",
            info.kind.name(),
            last.components,
            last.runs,
            cold,
            warm,
            session.scratch_bytes() / 1024,
        );
    }

    println!(
        "\nevery engine produced bit-identical grids; warm passes reuse the\n\
         labelers' arenas (see BENCH_reuse.json for the recorded sweep)"
    );
}
