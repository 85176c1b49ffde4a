//! Out-of-core labeling of a frame that is never held in memory: synthesize
//! a tall raw-PBM file on disk row by row, then label it through the
//! band-of-tiles scheduler with a band budget far below the frame height —
//! the working set is one band plus `O(cols + live components)` carried
//! seam state, no matter how tall the file grows:
//!
//! ```text
//! cargo run --release --example gigaframe
//! cargo run --release --example gigaframe -- 65536 2048
//! ```
//!
//! Arguments: `[rows] [cols]` (defaults: `16384 1024`). The frame is a
//! lattice of 4×4 squares at pitch 8, so the expected component count is
//! exactly `(rows/8) × (cols/8)` — an analytic ground truth that needs no
//! in-memory reference. Every retired record is checked against it field by
//! field: one square per lattice cell, with its area, bounding box,
//! perimeter, centroid sums and minimum position.

use slap_repro::image::{pbm, Connectivity, OutOfCoreLabeler, RetiredComponent};
use std::io::{BufWriter, Write};
use std::time::Instant;

/// Rows resident per band: many band seams on the default frame.
const BAND_ROWS: usize = 250;

/// Lattice pitch and square side of the synthetic pattern.
const PITCH: usize = 8;
const SIDE: usize = 4;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dim = |i: usize, default: usize| {
        args.get(i)
            .map(|s| s.parse().expect("dimensions must be numbers"))
            .unwrap_or(default)
    };
    let rows = dim(0, 16384);
    let cols = dim(1, 1024);
    assert!(
        rows % PITCH == 0 && cols % PITCH == 0,
        "dimensions must be multiples of the pitch {PITCH}"
    );

    // Write the frame as raw P4, one packed row at a time — the full bitmap
    // never exists in this process.
    let path = std::env::temp_dir().join("slap_gigaframe.pbm");
    let t0 = Instant::now();
    {
        let file = std::fs::File::create(&path).expect("create frame file");
        let mut w = BufWriter::new(file);
        write!(w, "P4\n{cols} {rows}\n").expect("write header");
        let mut packed = vec![0u8; cols.div_ceil(8)];
        for r in 0..rows {
            packed.iter_mut().for_each(|b| *b = 0);
            if r % PITCH < SIDE {
                for c in (0..cols).filter(|c| c % PITCH < SIDE) {
                    packed[c / 8] |= 0x80 >> (c % 8); // P4 is MSB-first
                }
            }
            w.write_all(&packed).expect("write row");
        }
        w.flush().expect("flush frame");
    }
    let bytes = std::fs::metadata(&path).expect("stat frame").len();
    println!(
        "synthesized {rows}x{cols} frame: {:.1} MiB on disk in {:.0} ms",
        bytes as f64 / (1 << 20) as f64,
        t0.elapsed().as_secs_f64() * 1e3
    );

    // Label it band by band: BAND_ROWS resident rows against `rows` total.
    let file = std::fs::File::open(&path).expect("open frame");
    let mut reader = pbm::PbmRowReader::new(file).expect("PBM header");
    let t1 = Instant::now();
    let run = OutOfCoreLabeler::new(BAND_ROWS, 2)
        .label_source(&mut reader, Connectivity::Four)
        .expect("label out of core");
    let elapsed = t1.elapsed();
    let s = &run.stats;
    println!(
        "labeled in {:.0} ms ({:.1} Mpx/s): {} band(s) of {} row(s), \
         {} component(s) retired",
        elapsed.as_secs_f64() * 1e3,
        s.pixels as f64 / elapsed.as_secs_f64() / 1e6,
        s.bands,
        s.band_rows,
        s.retired
    );
    println!(
        "carried state peaks: {} seam run(s), {} live component(s), \
         {} band run(s) — vs {} pixels in the frame",
        s.peak_carried_runs, s.peak_live_slots, s.peak_band_runs, s.pixels
    );

    // Analytic ground truth: one component per lattice cell, each record
    // exactly the square whose top-left pixel is its minimum position.
    let expected = (rows / PITCH) as u64 * (cols / PITCH) as u64;
    assert_eq!(s.retired, expected, "lattice component count");
    let mut cells: Vec<(u32, u32)> = run
        .components
        .iter()
        .map(|rec| {
            let (col, row) = (rec.min_pos_col, rec.min_pos_row);
            assert!(
                (col as usize).is_multiple_of(PITCH) && (row as usize).is_multiple_of(PITCH),
                "{rec:?} is off the lattice"
            );
            assert_eq!(
                *rec,
                square(row, col),
                "record of the square at ({row}, {col})"
            );
            (col, row)
        })
        .collect();
    cells.sort_unstable();
    cells.dedup();
    assert_eq!(cells.len() as u64, expected, "one record per lattice cell");
    println!(
        "verified: {expected} components match the lattice formula record for \
         record"
    );
    let _ = std::fs::remove_file(&path);
}

/// The exact record of the `SIDE × SIDE` square with top-left pixel
/// `(row, col)`.
fn square(row: u32, col: u32) -> RetiredComponent {
    let side = SIDE as u32;
    let area = u64::from(side * side);
    // Sum of `side` consecutive indices starting at `first`, times `side`.
    let sum = |first: u32| u64::from(side) * u64::from(side * first + side * (side - 1) / 2);
    RetiredComponent {
        min_pos_col: col,
        min_pos_row: row,
        area,
        min_row: row,
        max_row: row + side - 1,
        min_col: col,
        max_col: col + side - 1,
        sum_row: sum(row),
        sum_col: sum(col),
        perimeter: 4 * u64::from(side),
    }
}
