//! Workloads, their seeded inputs, and the fingerprints that pin the
//! generators.
//!
//! A run of either workload has two phases:
//!
//! * a **frame phase** on `FRAME_N²` frames of the workload's family,
//!   labeled through every in-process path (`slap label`, the parallel
//!   session, `slap stream`, the out-of-core labeler);
//! * a **serve phase**, the same mixed traffic on every workload, against an
//!   in-process `slapd` with `max_pixels = SERVE_MAX_PIXELS`: one client
//!   sends `SERVE_N²` random50 frames in grid mode, another alternates
//!   `SERVE_N²` random50 in-core stream frames with `OOC_N²` blobs frames
//!   that the server routes out-of-core. A run-dense out-of-core frame would
//!   answer with so many records that the client's decode, not the band
//!   scheduler, set its latency. Jobs on small blobs frames take half a
//!   millisecond, so their latency follows the host's wake-up and syscall
//!   cost: on a shared 2-CPU virtual machine their run-to-run spread reached
//!   24%, against 10% for this mix.

use crate::json::{self, Value};
use slap_image::{gen, pbm, Bitmap};
use std::fmt::Write as _;

/// The seed the fingerprints are recorded for.
pub const DEFAULT_SEED: u64 = 1;
/// Side of the frame-phase frames.
pub const FRAME_N: usize = 2048;
/// Side of the grid-mode and in-core stream-mode frames.
pub const SERVE_N: usize = 256;
/// Side of the out-of-core stream frames.
pub const OOC_N: usize = 512;
/// Distinct frames in each serve-mode pool.
pub const SERVE_FRAMES: usize = 8;
/// The server's routing threshold: `SERVE_N²` stays in-core, `OOC_N²`
/// goes out-of-core.
pub const SERVE_MAX_PIXELS: u64 = 1 << 17;
/// Family of the grid-mode and in-core stream-mode frames.
pub const SERVE_FAMILY: &str = "random50";
/// Family of the out-of-core stream frames.
pub const OOC_FAMILY: &str = "blobs";

/// A benchmark workload: the generator family of the frame phase, and how
/// many distinct frames it cycles through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Workload {
    pub name: &'static str,
    pub family: &'static str,
    /// Every random50 frame costs the same to within 1%, so a few suffice;
    /// blobs frames differ by ±5% in foreground area, so the pool is larger
    /// to keep its median cost the same across seeds.
    pub frames: usize,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "random50",
        family: "random50",
        frames: 4,
    },
    Workload {
        name: "blobs",
        family: "blobs",
        frames: 16,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.into_iter().find(|w| w.name == name)
}

/// One input frame: the bitmap, its raw PBM (`P4`) encoding, and its
/// foreground pixel count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    pub img: Bitmap,
    pub p4: Vec<u8>,
    pub ones: u64,
}

impl Frame {
    pub fn new(img: Bitmap) -> Frame {
        let mut p4 = Vec::with_capacity(img.rows() * img.cols().div_ceil(8) + 32);
        pbm::write_raw(&img, &mut p4).expect("writing to a Vec cannot fail");
        let ones = img.count_ones() as u64;
        Frame { img, p4, ones }
    }
}

/// Every input of one run.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub frames: Vec<Frame>,
    pub grid: Vec<Frame>,
    pub stream: Vec<Frame>,
    pub ooc: Vec<Frame>,
}

/// Independent input streams drawn from one `--seed`.
#[derive(Clone, Copy)]
enum Pool {
    Frames = 1,
    Grid = 2,
    Stream = 3,
    Ooc = 4,
}

/// The generator seed of frame `i` of `pool` under run seed `seed`.
fn input_seed(seed: u64, pool: Pool, i: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((pool as u64) << 40) ^ i as u64
}

/// `count` frames of `family` at side `n`, drawn from `pool` of `seed`.
fn pool_frames(family: &str, n: usize, count: usize, seed: u64, pool: Pool) -> Vec<Frame> {
    (0..count)
        .map(|i| {
            let img = gen::by_name(family, n, input_seed(seed, pool, i)).expect("known family");
            Frame::new(img)
        })
        .collect()
}

/// Generates every input of `w` from `seed`; the same seed gives the same
/// inputs.
pub fn generate(w: Workload, seed: u64) -> Inputs {
    generate_sized(w, seed, FRAME_N, SERVE_N, OOC_N)
}

fn generate_sized(w: Workload, seed: u64, frame_n: usize, serve_n: usize, ooc_n: usize) -> Inputs {
    Inputs {
        frames: pool_frames(w.family, frame_n, w.frames, seed, Pool::Frames),
        grid: pool_frames(SERVE_FAMILY, serve_n, SERVE_FRAMES, seed, Pool::Grid),
        stream: pool_frames(SERVE_FAMILY, serve_n, SERVE_FRAMES, seed, Pool::Stream),
        ooc: pool_frames(OOC_FAMILY, ooc_n, SERVE_FRAMES, seed, Pool::Ooc),
    }
}

/// Exact counts of one frame under one connectivity, from the `fast`
/// engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FrameCounts {
    pub components: u64,
    pub runs: u64,
    pub tiles_boundary: u64,
    pub tiles_interior: u64,
    pub tiles_background: u64,
}

impl FrameCounts {
    fn to_vec(self) -> Vec<u64> {
        vec![
            self.components,
            self.runs,
            self.tiles_boundary,
            self.tiles_interior,
            self.tiles_background,
        ]
    }

    fn from_slice(v: &[u64]) -> Option<FrameCounts> {
        match *v {
            [components, runs, tiles_boundary, tiles_interior, tiles_background] => {
                Some(FrameCounts {
                    components,
                    runs,
                    tiles_boundary,
                    tiles_interior,
                    tiles_background,
                })
            }
            _ => None,
        }
    }
}

/// What a workload's generators produce at one seed, reduced to exact
/// counts: per frame-phase frame its 4- and 8-connected counts, per serve
/// frame the component (record) count its reply must carry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub frames: Vec<[FrameCounts; 2]>,
    pub grid: Vec<u64>,
    pub stream: Vec<u64>,
    pub ooc: Vec<u64>,
}

/// The fingerprints recorded at [`DEFAULT_SEED`], one per workload.
pub const RECORDED: &str = include_str!("../fingerprints.json");

impl Fingerprint {
    pub fn to_json(&self) -> String {
        let list = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join(", ");
        let mut s = String::from("{\"frames\": [");
        for (i, [c4, c8]) in self.frames.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}[[{}], [{}]]",
                list(&c4.to_vec()),
                list(&c8.to_vec())
            );
        }
        let _ = write!(
            s,
            "], \"grid\": [{}], \"stream\": [{}], \"ooc\": [{}]}}",
            list(&self.grid),
            list(&self.stream),
            list(&self.ooc)
        );
        s
    }

    pub fn from_json(v: &Value) -> Option<Fingerprint> {
        let nums =
            |v: &Value| -> Option<Vec<u64>> { v.as_array()?.iter().map(Value::as_u64).collect() };
        let frames = v
            .get("frames")?
            .as_array()?
            .iter()
            .map(|f| {
                let pair = f.as_array()?;
                let c4 = FrameCounts::from_slice(&nums(pair.first()?)?)?;
                let c8 = FrameCounts::from_slice(&nums(pair.get(1)?)?)?;
                Some([c4, c8])
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Fingerprint {
            frames,
            grid: nums(v.get("grid")?)?,
            stream: nums(v.get("stream")?)?,
            ooc: nums(v.get("ooc")?)?,
        })
    }

    /// The recorded fingerprint of `w`.
    pub fn recorded(w: Workload) -> Result<Fingerprint, String> {
        let doc = json::parse(RECORDED)?;
        let entry = doc
            .get(w.name)
            .ok_or_else(|| format!("no fingerprint recorded for {}", w.name))?;
        Fingerprint::from_json(entry).ok_or_else(|| format!("malformed fingerprint for {}", w.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(w: Workload, seed: u64) -> Inputs {
        generate_sized(w, seed, 96, 32, 64)
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        for w in WORKLOADS {
            let a = small(w, 7);
            let b = small(w, 7);
            assert_eq!(a.frames, b.frames, "{}", w.name);
            assert_eq!(a.grid, b.grid);
            assert_eq!(a.stream, b.stream);
            assert_eq!(a.ooc, b.ooc);
            let c = small(w, 8);
            assert_ne!(a.frames, c.frames, "{}: another seed, other frames", w.name);
        }
    }

    #[test]
    fn pools_are_distinct_within_a_seed() {
        let a = small(WORKLOADS[0], 1);
        assert_ne!(a.frames[0], a.frames[1]);
        assert_ne!(a.grid[0], a.stream[0]);
    }

    #[test]
    fn frames_carry_their_p4_encoding() {
        let a = small(WORKLOADS[1], 3);
        let f = &a.frames[0];
        assert_eq!(pbm::read(&f.p4[..]).expect("valid P4"), f.img);
        assert_eq!(f.ones, f.img.count_ones() as u64);
    }

    #[test]
    fn fingerprint_roundtrips_through_json() {
        let c = |k: u64| FrameCounts {
            components: k,
            runs: k + 1,
            tiles_boundary: k + 2,
            tiles_interior: k + 3,
            tiles_background: k + 4,
        };
        let fp = Fingerprint {
            frames: vec![[c(1), c(10)], [c(20), c(30)]],
            grid: vec![5, 6],
            stream: vec![7],
            ooc: vec![8, 9, 10],
        };
        let v = json::parse(&fp.to_json()).expect("valid JSON");
        assert_eq!(Fingerprint::from_json(&v), Some(fp));
    }

    #[test]
    fn every_workload_has_a_recorded_fingerprint() {
        for w in WORKLOADS {
            let fp = Fingerprint::recorded(w).expect("recorded");
            assert_eq!(fp.frames.len(), w.frames);
            assert_eq!(fp.grid.len(), SERVE_FRAMES);
            assert_eq!(fp.stream.len(), SERVE_FRAMES);
            assert_eq!(fp.ooc.len(), SERVE_FRAMES);
        }
    }
}
