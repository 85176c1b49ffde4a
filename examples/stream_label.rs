//! Streaming labeling over piped PBM: serialize a workload to raw PBM
//! bytes, then label it back **row by row** through the streaming engine,
//! one band of rows resident at a time — the image is never rebuilt in
//! memory, exactly as if the bytes arrived over a pipe:
//!
//! ```text
//! cargo run --release --example stream_label
//! cargo run --release --example stream_label -- maze 1024
//! slap gen blobs 4096 | slap stream            # the same flow between processes
//! ```
//!
//! Arguments: `[workload] [n]` (defaults: `blobs 512`). The example prints
//! the first retirements as the labeler's sink receives them — band by
//! band, long before the last row arrives — plus the carried-state peaks,
//! and cross-checks every retired label and area against the whole-frame
//! fast engine.

use slap_repro::image::{
    fast_labels_conn, gen, pbm, Connectivity, OutOfCoreLabeler, STREAM_BAND_ROWS,
};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let workload = args.first().map(String::as_str).unwrap_or("blobs");
    let n: usize = args
        .get(1)
        .map(|s| s.parse().expect("size must be a number"))
        .unwrap_or(512);
    let img = gen::by_name(workload, n, 42).unwrap_or_else(|| {
        eprintln!(
            "unknown workload {workload:?}; one of: {:?}",
            gen::WORKLOADS
        );
        std::process::exit(2);
    });

    // The "pipe": raw P4 bytes, as `slap gen | slap stream` would move them.
    let mut pbm_bytes = Vec::new();
    pbm::write_raw(&img, &mut pbm_bytes).expect("serialize PBM");
    println!(
        "workload {workload:?}, {n}x{n}, {} PBM byte(s) streaming through\n",
        pbm_bytes.len()
    );

    // Consume the bytes incrementally: the reader hands over one packed row
    // per call, the labeler reads a band of rows at a time and hands each
    // component to the sink as soon as a band no longer touches it.
    let mut reader = pbm::PbmRowReader::new(&pbm_bytes[..]).expect("PBM header");
    let rows = reader.rows();
    let mut labeler = OutOfCoreLabeler::new(STREAM_BAND_ROWS, 1);
    let mut retired = Vec::new();
    let t0 = Instant::now();
    let stats = labeler
        .label_source_with(&mut reader, Connectivity::Four, |rec| {
            if retired.len() < 8 {
                println!(
                    "  rows {:4}..={:<4}: retired label {:7}  {:6} px  bbox {}x{}",
                    rec.min_row,
                    rec.max_row,
                    rec.label(rows),
                    rec.area,
                    rec.height(),
                    rec.width()
                );
            }
            retired.push((rec.label(rows), rec.area));
        })
        .expect("PBM row");
    let elapsed = t0.elapsed();
    if retired.len() > 8 {
        println!("  ... and {} more", retired.len() - 8);
    }

    println!(
        "\n{} component(s) from {} rows in {:.3} ms ({:.0} rows/s)",
        stats.retired,
        stats.rows,
        elapsed.as_secs_f64() * 1e3,
        stats.rows as f64 / elapsed.as_secs_f64().max(1e-9)
    );
    println!(
        "peak memory: one band of {} rows + {} carried run(s) + {} union-find \
         slot(s) — O(cols), independent of the {} rows",
        stats.band_rows, stats.peak_carried_runs, stats.peak_live_slots, stats.rows
    );

    // The retired set must match the whole-frame engine exactly: the same
    // paper labels with the same areas.
    let reference = fast_labels_conn(&img, Connectivity::Four);
    let mut want: Vec<(u64, u64)> = reference
        .component_stats()
        .iter()
        .map(|c| (u64::from(c.label), c.pixels as u64))
        .collect();
    want.sort_unstable();
    retired.sort_unstable();
    assert_eq!(retired, want, "records must match the fast engine");
    println!(
        "cross-check: all {} labels and areas match the whole-frame fast engine",
        want.len()
    );
}
