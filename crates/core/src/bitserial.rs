//! Theorem 5: the restricted SLAP with 1-bit links.
//!
//! The paper shows that when adjacent PEs can exchange only **one bit** per
//! time step, component labeling needs `Ω(n lg n)` time: on the even-rows
//! image family the rightmost column's labeling encodes the start column of
//! every even row, i.e. `Ω(n lg n)` bits, while the rightmost PE receives at
//! most one bit per step.
//!
//! Two reproductions live here:
//!
//! * [`label_components_bitserial`] — the *upper* bound side: Algorithm CC
//!   itself runs on the bit-link machine by serializing each message
//!   (`2·⌈lg n⌉`-bit row pairs, label/row pairs) over the link, giving an
//!   `O(n lg n)`-step algorithm whose measured makespan the E8 experiment
//!   compares against `n lg n`;
//! * [`entropy_report`] — the *lower* bound side: exhaustively enumerate the
//!   even-rows family for small `n`, count the distinct rightmost-column
//!   labelings, and convert the count into the information-theoretic step
//!   bound `lg(#labelings)` the theorem's counting argument yields.

use crate::cc::{label_components_kind, CcOptions, CcRun};
use slap_image::{fast_labels, gen, Bitmap};
use slap_machine::costs;
use slap_unionfind::UfKind;
use std::collections::HashSet;

/// Bit width of one Algorithm CC message on an `rows × cols` image: two
/// values each bounded by the doubled label space `2·rows·cols` (row indices
/// are smaller, but the SIMD machine serializes a fixed word format).
pub fn message_bits(rows: usize, cols: usize) -> u32 {
    2 * costs::bits_for((2 * rows * cols) as u64)
}

/// Runs Algorithm CC on the restricted 1-bit-link SLAP: identical labeling,
/// with every link message charged its serialized bit width.
pub fn label_components_bitserial(img: &Bitmap, kind: UfKind, opts: &CcOptions) -> CcRun {
    let bits = message_bits(img.rows(), img.cols());
    let opts = CcOptions {
        word_steps: costs::bit_serial_steps(bits),
        ..*opts
    };
    label_components_kind(img, kind, &opts)
}

/// The counting-argument data for one image side `n` (see module docs).
#[derive(Clone, Copy, Debug)]
pub struct EntropyReport {
    /// Image side.
    pub n: usize,
    /// Instances of the even-rows family enumerated (`n^(n/2)` when
    /// exhaustive).
    pub instances: u64,
    /// Distinct labelings observed on the rightmost column.
    pub distinct_labelings: u64,
    /// `lg(distinct_labelings)` — bits the rightmost PE must receive, hence
    /// a lower bound on steps for the 1-bit machine.
    pub required_bits: f64,
    /// `n·lg n`, the theorem's asymptotic form, for comparison.
    pub n_log_n: f64,
}

/// Exhaustively enumerates the even-rows family for side `n` (all
/// `n^(n/2)` start-column vectors) and counts the distinct rightmost-column
/// labelings. Exact but exponential: keep `n ≤ 10` (`10^5` instances).
///
/// # Panics
/// Panics if the instance count exceeds `limit` (a guard against accidental
/// explosion).
pub fn entropy_report(n: usize, limit: u64) -> EntropyReport {
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "n must be even and at least 2"
    );
    let rows = n / 2;
    let instances = (n as u64).pow(rows as u32);
    assert!(
        instances <= limit,
        "even-rows family for n={n} has {instances} instances > limit {limit}"
    );
    let mut starts = vec![0usize; rows];
    let mut seen: HashSet<Vec<u32>> = HashSet::new();
    let mut count = 0u64;
    loop {
        count += 1;
        let img = gen::even_rows(n, n, &starts);
        let labels = fast_labels(&img);
        let last_col: Vec<u32> = (0..n).map(|r| labels.get(r, n - 1)).collect();
        seen.insert(last_col);
        // odometer increment over starts in 0..n
        let mut i = 0;
        loop {
            if i == rows {
                let distinct = seen.len() as u64;
                return EntropyReport {
                    n,
                    instances: count,
                    distinct_labelings: distinct,
                    required_bits: (distinct as f64).log2(),
                    n_log_n: n as f64 * (n as f64).log2(),
                };
            }
            starts[i] += 1;
            if starts[i] < n {
                break;
            }
            starts[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slap_image::gen::even_rows_random;

    #[test]
    fn message_bits_scale_with_label_space() {
        assert_eq!(message_bits(16, 16), 2 * 10); // 2*16*16 = 512 -> 10 bits
        assert!(message_bits(256, 256) > message_bits(16, 16));
    }

    #[test]
    fn bitserial_labeling_is_exact() {
        let img = even_rows_random(24, 24, 3);
        let truth = fast_labels(&img);
        let run = label_components_bitserial(&img, UfKind::Tarjan, &CcOptions::default());
        assert_eq!(run.labels, truth);
    }

    #[test]
    fn bitserial_costs_strictly_more_than_word_links() {
        let img = even_rows_random(32, 32, 4);
        let word = label_components_kind(&img, UfKind::Tarjan, &CcOptions::default());
        let bit = label_components_bitserial(&img, UfKind::Tarjan, &CcOptions::default());
        assert!(bit.metrics.total_steps > word.metrics.total_steps);
        assert_eq!(bit.labels, word.labels);
    }

    #[test]
    fn entropy_counts_all_start_vectors() {
        // n=4: 2 even rows, 4 starts each -> 16 instances. Every start vector
        // gives a distinct rightmost-column labeling (the counting argument's
        // core claim): labels are start_col * n + row.
        let r = entropy_report(4, 1_000);
        assert_eq!(r.instances, 16);
        assert_eq!(r.distinct_labelings, 16);
        assert!(r.required_bits > 3.9 && r.required_bits < 4.1);
    }

    #[test]
    fn entropy_grows_like_half_n_log_n() {
        let r6 = entropy_report(6, 1_000_000);
        assert_eq!(r6.instances, 6u64.pow(3));
        assert_eq!(r6.distinct_labelings, 216);
        // required bits = 3*lg 6 ≈ 7.75 = (n/2) lg n
        assert!((r6.required_bits - 3.0 * 6f64.log2()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "instances")]
    fn entropy_guard_trips() {
        entropy_report(10, 10);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn entropy_rejects_odd_n() {
        entropy_report(5, 1_000);
    }
}
