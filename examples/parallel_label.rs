//! Strip-parallel labeling: generate a workload, label it on several worker
//! threads through the `parallel` engine session (the tiled engine on a
//! `threads × 1` grid), verify bit-identity against the sequential engine,
//! and summarize the components.
//!
//! ```text
//! cargo run --release --example parallel_label
//! cargo run --release --example parallel_label -- random50 2048 4
//! ```
//!
//! Arguments: `[workload] [n] [threads]` (defaults: `blobs 512`, all
//! available cores). Wall-clock speedup needs real hardware parallelism;
//! bit-identity holds everywhere.

use slap_repro::cc::EngineKind;
use slap_repro::image::{fast_labels_conn, gen, Connectivity, LabelGrid};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = args.first().map(String::as_str).unwrap_or("blobs");
    let n: usize = args
        .get(1)
        .map(|s| s.parse().expect("size must be a number"))
        .unwrap_or(512);
    let threads: usize = args
        .get(2)
        .map(|s| s.parse().expect("threads must be a number"))
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |p| p.get()));
    let img = gen::by_name(workload, n, 42).unwrap_or_else(|| {
        eprintln!(
            "unknown workload {workload:?}; one of: {:?}",
            gen::WORKLOADS
        );
        std::process::exit(2);
    });
    println!(
        "workload {workload:?}, {n}x{n}, density {:.2}, {threads} thread(s)\n",
        img.density()
    );

    // Sequential reference first: the strip-parallel engine must reproduce
    // it bit for bit (labels are component minima — no decomposition can
    // change them).
    let t0 = Instant::now();
    let reference = fast_labels_conn(&img, Connectivity::Four);
    let seq = t0.elapsed();

    // Hot-loop shape: one reusable labeler + one reusable grid, so repeated
    // calls grow no arena (the worker spawns and a few per-call vectors of
    // one entry per band remain).
    let mut labeler = EngineKind::Parallel.session(threads);
    let mut labels = LabelGrid::new_background(1, 1);
    labeler.label_into(&img, Connectivity::Four, &mut labels); // warm-up
    let t1 = Instant::now();
    labeler.label_into(&img, Connectivity::Four, &mut labels);
    let par = t1.elapsed();

    assert_eq!(labels, reference, "parallel labels must be bit-identical");
    println!(
        "sequential fast engine : {:9.3} ms",
        seq.as_secs_f64() * 1e3
    );
    println!(
        "strip-parallel @ {threads:2}    : {:9.3} ms  ({:.2}x)",
        par.as_secs_f64() * 1e3,
        seq.as_secs_f64() / par.as_secs_f64().max(1e-9)
    );

    let stats = labels.component_stats();
    println!("\ncomponents: {}", stats.len());
    for info in stats.iter().take(8) {
        println!(
            "  label {:7}  {:6} px  bbox {}x{} at (r{}, c{})",
            info.label,
            info.pixels,
            info.height(),
            info.width(),
            info.min_row,
            info.min_col
        );
    }
    if stats.len() > 8 {
        println!("  ... and {} more", stats.len() - 8);
    }
}
