//! The shared sweep harness: one family × size × connectivity driver and
//! one timing protocol for every `slap-bench` recorder.
//!
//! The baseline, tiled, stream, reuse, and propagate sweeps all walk the
//! same grid — deterministic workload families at a ladder of sizes, both
//! adjacency conventions, repetitions scaled to the image — and differ only
//! in what they time at each point. [`drive`] owns the walk (and the
//! workload generation and rep policy); recorders own just their per-point
//! closure, which turns each [`Point`] into [`crate::record::Entry`]s of the
//! one file shape. Keeping the protocol in one place means every committed
//! `BENCH_*.json` is comparable: same seed, same generator calls, same
//! best/mean-of-N discipline.

use slap_image::{gen, Bitmap, Connectivity};
use std::time::Instant;

/// Seed for the random workload families (shared by every sweep).
pub const SEED: u64 = 1;

/// Connectivities swept (the JSON records them as `4` / `8`).
pub const CONNS: &[Connectivity] = &[Connectivity::Four, Connectivity::Eight];

/// The JSON id (`4` / `8`) of a connectivity.
pub fn conn_id(conn: Connectivity) -> u32 {
    match conn {
        Connectivity::Four => 4,
        Connectivity::Eight => 8,
    }
}

/// Repetitions per point, scaled down for the big images.
pub fn reps_for(n: usize, quick: bool) -> usize {
    match (quick, n) {
        (true, _) => 3,
        (false, 2048..) => 3,
        (false, 1024..) => 4,
        _ => 6,
    }
}

/// Times `f` over `reps` repetitions (after one warm-up), returning
/// `(best_ns, mean_ns)`.
pub fn time_reps(reps: usize, mut f: impl FnMut()) -> (u64, u64) {
    f(); // warm-up
    let mut best = u64::MAX;
    let mut total = 0u64;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        let ns = t.elapsed().as_nanos() as u64;
        best = best.min(ns);
        total += ns;
    }
    (best, total / reps as u64)
}

/// One stop of the sweep walk: a generated workload at one size under one
/// adjacency convention, with the rep budget the protocol assigns it.
pub struct Point<'a> {
    /// Workload family name (a `gen::by_name` key).
    pub family: &'a str,
    /// Image side (the image is `n × n`).
    pub n: usize,
    /// Adjacency convention.
    pub conn: Connectivity,
    /// The JSON id of `conn` (`4` / `8`).
    pub cid: u32,
    /// The generated image (one generation per `(family, n)`, shared by
    /// both connectivities).
    pub img: &'a Bitmap,
    /// Timed repetitions the protocol assigns this size.
    pub reps: usize,
}

/// Walks `families × sides × CONNS`, generating each workload once per
/// `(family, n)` with [`SEED`], and invokes `f` at every point.
///
/// # Panics
/// Panics on an unknown family name.
pub fn drive(families: &[&str], sides: &[usize], quick: bool, mut f: impl FnMut(&Point)) {
    for &family in families {
        for &n in sides {
            let img = gen::by_name(family, n, SEED)
                .unwrap_or_else(|| panic!("unknown workload family {family:?}"));
            let reps = reps_for(n, quick);
            for &conn in CONNS {
                f(&Point {
                    family,
                    n,
                    conn,
                    cid: conn_id(conn),
                    img: &img,
                    reps,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drive_visits_every_point_in_order() {
        let mut seen = Vec::new();
        drive(&["random50", "empty"], &[8, 16], true, |p| {
            assert_eq!(p.img.rows(), p.n);
            assert_eq!(p.img.cols(), p.n);
            assert_eq!(p.reps, reps_for(p.n, true));
            seen.push((p.family.to_string(), p.n, p.cid));
        });
        let expect: Vec<(String, usize, u32)> = ["random50", "empty"]
            .iter()
            .flat_map(|f| {
                [8usize, 16]
                    .iter()
                    .flat_map(move |&n| [4u32, 8].iter().map(move |&c| (f.to_string(), n, c)))
            })
            .collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn one_generation_per_family_and_size() {
        // Both connectivity stops at one (family, n) must hand out the same
        // image object state (same pixels, deterministic seed).
        let mut last: Option<(usize, u64)> = None;
        drive(&["random50"], &[32], true, |p| {
            let ones = p.img.count_ones() as u64;
            if let Some((n, prev)) = last {
                assert_eq!(n, p.n);
                assert_eq!(prev, ones, "same generated frame for both conns");
            }
            last = Some((p.n, ones));
        });
    }
}
