//! Host-speed calibration.
//!
//! On a shared 2-CPU virtual machine the speed of one core drifts by 20–25%
//! over tens of seconds (co-tenants, frequency), which no median within a
//! run can remove. So every phase also times a fixed kernel that belongs to the
//! benchmark and shares no code with the repository, interleaved with the
//! measured calls, and every reported time is scaled by
//! `REFERENCE_MS / median(kernel time)`, taken over the kernel calls next to
//! it: it reads as milliseconds on a host where the kernel takes exactly
//! [`REFERENCE_MS`]. A change to the
//! repository's code cannot move the kernel, so the scaling removes host
//! drift and nothing else.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time that defines the reference host speed.
pub const REFERENCE_MS: f64 = 1.0;
/// Kernel table size: 32 KiB, so the kernel's time does not depend on
/// what the measured calls left in the caches.
const TABLE_WORDS: usize = 1 << 12;
/// Dependent table probes per kernel call (about 1 ms on a 2020s core).
const STEPS: usize = 330_000;
/// Kernel calls [`Calib::recent`] takes the median of.
const RECENT: usize = 7;

#[derive(Debug)]
pub struct Calib {
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Calib {
    pub fn new() -> Calib {
        Calib {
            table: (0..TABLE_WORDS as u64)
                .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
                .collect(),
            samples: Vec::new(),
        }
    }

    /// Times one kernel call.
    pub fn sample(&mut self) {
        let t0 = Instant::now();
        black_box(self.kernel());
        self.samples.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    /// Times `n` kernel calls back to back.
    pub fn burst(&mut self, n: usize) {
        for _ in 0..n {
            self.sample();
        }
    }

    /// A xorshift walk of dependent, read-modify-write probes into the
    /// table: integer work and loads, like the labeling passes.
    fn kernel(&mut self) -> u64 {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut acc = 0u64;
        for _ in 0..STEPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let i = ((x ^ acc) as usize) & (TABLE_WORDS - 1);
            acc = acc.wrapping_add(self.table[i]);
            self.table[i] = acc;
        }
        acc
    }

    /// The factor that scales a time measured now to the reference host:
    /// the reference over the median of the last few kernel times, which
    /// follows the drift and damps a single disturbed kernel call.
    pub fn recent(&self) -> f64 {
        let tail = &self.samples[self.samples.len().saturating_sub(RECENT)..];
        REFERENCE_MS / median(tail).unwrap_or(REFERENCE_MS)
    }

    /// Median kernel time (ms) of the samples since the last [`Calib::take`].
    pub fn median_ms(&self) -> f64 {
        median(&self.samples).unwrap_or(REFERENCE_MS)
    }

    /// The factor that scales this period's times to the reference host,
    /// and a fresh period.
    pub fn take(&mut self) -> f64 {
        let f = REFERENCE_MS / self.median_ms();
        self.samples.clear();
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_the_reference_over_the_median() {
        let mut c = Calib::new();
        c.samples = vec![2.0, 4.0, 8.0];
        assert_eq!(c.recent(), REFERENCE_MS / 4.0);
        assert_eq!(c.take(), REFERENCE_MS / 4.0);
        assert!(c.samples.is_empty());
        assert_eq!(c.recent(), 1.0);
    }

    #[test]
    fn recent_factor_follows_the_latest_samples() {
        let mut c = Calib::new();
        c.samples = vec![9.0; 20];
        c.samples.extend([2.0; RECENT]);
        assert_eq!(c.recent(), REFERENCE_MS / 2.0);
    }

    #[test]
    fn kernel_is_deterministic() {
        let (mut a, mut b) = (Calib::new(), Calib::new());
        assert_eq!(a.kernel(), b.kernel());
        a.burst(2);
        assert_eq!(a.samples.len(), 2);
    }
}
