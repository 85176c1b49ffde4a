//! Corollary 4: component-wise folds of arbitrary initial pixel labels.
//!
//! Given any assignment of initial values to pixels and any commutative,
//! associative operator, label every pixel of each component with the fold of
//! the component's initial values — in the same asymptotic time as component
//! labeling. The paper proves it for "minimum" and notes the generalization;
//! this module implements the general form.
//!
//! Following the paper's proof sketch: first produce a component labeling
//! (Algorithm CC), then fold locally within each column, then run a
//! left-to-right pass recording for each component the fold of its pixels in
//! columns `0..=i`, then the mirrored right-to-left pass, and finally combine
//! the two directions locally. Because a component's column span is an
//! interval and the component crosses every internal column boundary of its
//! span, each PE can decide locally (from its neighbor columns' pixels)
//! whether a component extends left or right, so each pass sends at most one
//! message per component per link — the same pipeline shape as `Label-Pass`.
//!
//! To avoid double counting with non-idempotent operators (sum, count), the
//! final value at column `i` is `prefix_incl(0..=i) ⊕ suffix_excl(i+1..)`.

use slap_image::{Bitmap, Connectivity, LabelGrid};
use slap_machine::{run_pipeline_with, PipelineConfig, PipelineReport};
use std::collections::{BTreeMap, HashMap};

/// A commutative, associative fold with identity.
pub trait Fold {
    /// The folded value type.
    type Value: Copy + PartialEq + std::fmt::Debug;

    /// Identity element (`combine(identity(), v) == v`).
    fn identity() -> Self::Value;

    /// The operator; must be commutative and associative.
    fn combine(a: Self::Value, b: Self::Value) -> Self::Value;
}

/// Minimum of `u64` values (the paper's running example).
pub struct MinFold;
impl Fold for MinFold {
    type Value = u64;
    fn identity() -> u64 {
        u64::MAX
    }
    fn combine(a: u64, b: u64) -> u64 {
        a.min(b)
    }
}

/// Maximum of `u64` values.
pub struct MaxFold;
impl Fold for MaxFold {
    type Value = u64;
    fn identity() -> u64 {
        0
    }
    fn combine(a: u64, b: u64) -> u64 {
        a.max(b)
    }
}

/// Sum of `u64` values (with all-ones input: component pixel counts).
pub struct SumFold;
impl Fold for SumFold {
    type Value = u64;
    fn identity() -> u64 {
        0
    }
    fn combine(a: u64, b: u64) -> u64 {
        a + b
    }
}

/// Step accounting for a component fold.
#[derive(Clone, Debug, Default)]
pub struct FoldMetrics {
    /// Makespan of the local per-column fold (max units over PEs).
    pub local_makespan: u64,
    /// The left-to-right prefix pass.
    pub prefix_pass: PipelineReport,
    /// The right-to-left suffix pass.
    pub suffix_pass: PipelineReport,
    /// Machine time: local + prefix + suffix + final combine.
    pub total_steps: u64,
}

/// Result of a component fold.
#[derive(Clone, Debug)]
pub struct FoldRun<V> {
    /// Fold value per component, keyed by the component's label, sorted by
    /// label.
    pub per_component: Vec<(u32, V)>,
    /// Step accounting.
    pub metrics: FoldMetrics,
}

impl<V: Copy> FoldRun<V> {
    /// Looks up the folded value of the component with `label`.
    pub fn value_of(&self, label: u32) -> Option<V> {
        self.per_component
            .binary_search_by_key(&label, |&(l, _)| l)
            .ok()
            .map(|i| self.per_component[i].1)
    }
}

/// Per-column fold state used by the passes.
struct ColumnFold<V> {
    /// label -> fold of this column's pixels with that label; ordered, so
    /// the passes send their messages (and count their steps) the same way
    /// on every run
    local: BTreeMap<u32, V>,
    /// does the component extend left / right of this column?
    extends_left: HashMap<u32, bool>,
    extends_right: HashMap<u32, bool>,
    units: u64,
}

fn column_folds<F: Fold>(
    img: &Bitmap,
    labels: &LabelGrid,
    conn: Connectivity,
    values: &dyn Fn(usize, usize) -> F::Value,
) -> Vec<ColumnFold<F::Value>> {
    let (rows, cols) = (img.rows(), img.cols());
    // An adjacent foreground pixel in the neighbor column is by definition
    // in the same component, so its presence means the component crosses the
    // link. Because a component's column span is an interval and the
    // component crosses every internal boundary of its span, checking the
    // neighbor column suffices (diagonal rows too under 8-connectivity).
    let crosses = |r: usize, nc: usize| -> bool {
        if img.get(r, nc) {
            return true;
        }
        conn == Connectivity::Eight
            && ((r > 0 && img.get(r - 1, nc)) || (r + 1 < rows && img.get(r + 1, nc)))
    };
    (0..cols)
        .map(|c| {
            let mut cf = ColumnFold {
                local: BTreeMap::new(),
                extends_left: HashMap::new(),
                extends_right: HashMap::new(),
                units: 0,
            };
            for r in 0..rows {
                cf.units += 1;
                if !img.get(r, c) {
                    continue;
                }
                let l = labels.get(r, c);
                let e = cf.local.entry(l).or_insert_with(F::identity);
                *e = F::combine(*e, values(r, c));
                cf.units += 1;
                if c > 0 && crosses(r, c - 1) {
                    cf.extends_left.insert(l, true);
                }
                if c + 1 < cols && crosses(r, c + 1) {
                    cf.extends_right.insert(l, true);
                }
            }
            cf
        })
        .collect()
}

/// One directional accumulation pass. `cols_order` yields PE indices in flow
/// order; `extends_back`/`extends_fwd` select which extension maps mean
/// "expect a message" / "send a message". Returns, per column, the
/// *inclusive* accumulation per label (fold over all columns from the flow
/// start through this one) and the *exclusive* incoming value per label.
#[allow(clippy::type_complexity)]
fn accumulate_pass<F: Fold>(
    folds: &[ColumnFold<F::Value>],
    reversed: bool,
    word_steps: u64,
) -> (
    Vec<HashMap<u32, F::Value>>, // inclusive per column (in image order)
    Vec<HashMap<u32, F::Value>>, // exclusive incoming per column (in image order)
    PipelineReport,
) {
    let n = folds.len();
    let cfg = PipelineConfig {
        n_pes: n,
        word_steps,
        start_clock: 0,
    };
    let image_index = |pe: usize| if reversed { n - 1 - pe } else { pe };
    let mut inclusive: Vec<HashMap<u32, F::Value>> = (0..n).map(|_| HashMap::new()).collect();
    let mut exclusive: Vec<HashMap<u32, F::Value>> = (0..n).map(|_| HashMap::new()).collect();
    let (_, report) =
        run_pipeline_with(cfg, |pe, ctx: &mut slap_machine::PeCtx<(u32, F::Value)>| {
            let c = image_index(pe);
            let cf = &folds[c];
            let (expects_in, sends_out) = if reversed {
                (&cf.extends_right, &cf.extends_left)
            } else {
                (&cf.extends_left, &cf.extends_right)
            };
            // send the labels that start here (no upstream extension)
            for (&l, &v) in &cf.local {
                ctx.charge(1);
                inclusive[c].insert(l, v);
                if !expects_in.contains_key(&l) && sends_out.contains_key(&l) {
                    ctx.send((l, v));
                }
            }
            // absorb upstream accumulations, extend, forward
            while let Some((l, v)) = ctx.recv() {
                ctx.charge(1);
                exclusive[c].insert(l, v);
                let local = cf.local.get(&l).copied().unwrap_or_else(F::identity);
                let acc = F::combine(local, v);
                inclusive[c].insert(l, acc);
                if sends_out.contains_key(&l) {
                    ctx.send((l, acc));
                }
            }
        });
    (inclusive, exclusive, report)
}

/// Computes, for every component of `img` (as labeled by `labels`), the fold
/// of `values(row, col)` over the component's pixels, on the simulated SLAP.
///
/// `labels` must be a valid 4-connectivity labeling of `img` (e.g. an
/// Algorithm CC or oracle output). For 8-connectivity labelings use
/// [`component_fold_conn`].
pub fn component_fold<F: Fold>(
    img: &Bitmap,
    labels: &LabelGrid,
    values: &dyn Fn(usize, usize) -> F::Value,
) -> FoldRun<F::Value> {
    component_fold_conn::<F>(img, labels, Connectivity::Four, values)
}

/// [`component_fold`] under an arbitrary adjacency convention. `conn` must
/// match the convention `labels` was produced with, or the boundary-crossing
/// tests the passes rely on may miss a component's extension.
pub fn component_fold_conn<F: Fold>(
    img: &Bitmap,
    labels: &LabelGrid,
    conn: Connectivity,
    values: &dyn Fn(usize, usize) -> F::Value,
) -> FoldRun<F::Value> {
    assert_eq!(labels.rows(), img.rows());
    assert_eq!(labels.cols(), img.cols());
    let folds = column_folds::<F>(img, labels, conn, values);
    let local_makespan = folds.iter().map(|f| f.units).max().unwrap_or(0);
    let word_steps = slap_machine::costs::WORD_STEPS;
    let (prefix_incl, _prefix_excl, prefix_report) =
        accumulate_pass::<F>(&folds, false, word_steps);
    let (_suffix_incl, suffix_excl, suffix_report) = accumulate_pass::<F>(&folds, true, word_steps);
    // Final local combine: prefix_incl(0..=c) ⊕ suffix_excl(c+1..). Every
    // column of a component computes the same value; fill the map from the
    // leftmost occurrence and verify agreement elsewhere (debug builds).
    let mut totals: HashMap<u32, F::Value> = HashMap::new();
    let mut combine_makespan = 0u64;
    for c in 0..folds.len() {
        let mut units = 0u64;
        for (&l, &p) in &prefix_incl[c] {
            units += 1;
            let s = suffix_excl[c].get(&l).copied().unwrap_or_else(F::identity);
            let total = F::combine(p, s);
            if let Some(prev) = totals.get(&l) {
                debug_assert_eq!(*prev, total, "column {c}: fold of label {l} disagrees");
            } else {
                totals.insert(l, total);
            }
        }
        combine_makespan = combine_makespan.max(units);
    }
    let mut per_component: Vec<(u32, F::Value)> = totals.into_iter().collect();
    per_component.sort_unstable_by_key(|&(l, _)| l);
    let total_steps =
        local_makespan + prefix_report.makespan + suffix_report.makespan + combine_makespan;
    FoldRun {
        per_component,
        metrics: FoldMetrics {
            local_makespan,
            prefix_pass: prefix_report,
            suffix_pass: suffix_report,
            total_steps,
        },
    }
}

/// Convenience for the paper's headline case: fold = minimum, initial values
/// = column-major positions. The result must equal the component labels
/// themselves (a built-in self check used by the tests).
pub fn min_position_fold(img: &Bitmap, labels: &LabelGrid) -> FoldRun<u64> {
    let rows = img.rows();
    component_fold::<MinFold>(img, labels, &move |r, c| (c * rows + r) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use slap_image::{fast_labels, gen};

    fn setup(name: &str, n: usize) -> (Bitmap, LabelGrid) {
        let img = gen::by_name(name, n, 5).unwrap();
        let labels = fast_labels(&img);
        (img, labels)
    }

    #[test]
    fn min_of_positions_reproduces_labels() {
        for name in ["random50", "fig3a", "comb", "blobs", "fan"] {
            let (img, labels) = setup(name, 24);
            let run = min_position_fold(&img, &labels);
            for &(label, v) in &run.per_component {
                assert_eq!(v, label as u64, "workload {name}");
            }
        }
    }

    #[test]
    fn sum_of_ones_gives_component_sizes() {
        let (img, labels) = setup("blobs", 32);
        let run = component_fold::<SumFold>(&img, &labels, &|_, _| 1u64);
        let stats = labels.component_stats();
        assert_eq!(run.per_component.len(), stats.len());
        for info in stats {
            assert_eq!(
                run.value_of(info.label),
                Some(info.pixels as u64),
                "component {}",
                info.label
            );
        }
    }

    #[test]
    fn max_fold_finds_largest_initial_value() {
        let (img, labels) = setup("random50", 20);
        let rows = img.rows();
        let run = component_fold::<MaxFold>(&img, &labels, &move |r, c| (c * rows + r) as u64);
        // brute-force check
        let mut expect: HashMap<u32, u64> = HashMap::new();
        for (r, c) in img.iter_ones_colmajor() {
            let l = labels.get(r, c);
            let v = (c * rows + r) as u64;
            let e = expect.entry(l).or_insert(0);
            *e = (*e).max(v);
        }
        for (l, v) in expect {
            assert_eq!(run.value_of(l), Some(v));
        }
    }

    #[test]
    fn fold_handles_single_pixel_components() {
        let (img, labels) = setup("checker", 16);
        let run = component_fold::<SumFold>(&img, &labels, &|_, _| 1u64);
        for &(_, v) in &run.per_component {
            assert_eq!(v, 1);
        }
        assert_eq!(run.per_component.len(), labels.component_count());
    }

    #[test]
    fn empty_image_yields_no_components() {
        let img = Bitmap::new(8, 8);
        let labels = fast_labels(&img);
        let run = component_fold::<SumFold>(&img, &labels, &|_, _| 1u64);
        assert!(run.per_component.is_empty());
    }

    #[test]
    fn pass_messages_bounded_by_components_times_span() {
        let (img, labels) = setup("hstripes", 32);
        let run = component_fold::<SumFold>(&img, &labels, &|_, _| 1u64);
        // each stripe crosses 31 links once per direction
        let comps = labels.component_count() as u64;
        assert!(run.metrics.prefix_pass.messages <= comps * 31);
        assert!(run.metrics.prefix_pass.messages >= comps * 31);
    }

    #[test]
    fn value_of_missing_label_is_none() {
        let (img, labels) = setup("random50", 12);
        let run = component_fold::<SumFold>(&img, &labels, &|_, _| 1u64);
        assert_eq!(run.value_of(u32::MAX - 1), None);
    }

    #[test]
    fn eight_conn_fold_counts_diagonal_components_whole() {
        use slap_image::{fast_labels_conn, Connectivity};
        // A pure anti-diagonal: one 8-component of n pixels spanning all
        // columns; a 4-connectivity fold would see n singletons.
        let n = 16;
        let mut img = Bitmap::new(n, n);
        for i in 0..n {
            img.set(i, n - 1 - i, true);
        }
        let labels = fast_labels_conn(&img, Connectivity::Eight);
        let run = component_fold_conn::<SumFold>(&img, &labels, Connectivity::Eight, &|_, _| 1u64);
        assert_eq!(run.per_component.len(), 1);
        assert_eq!(run.per_component[0].1, n as u64);
    }

    #[test]
    fn eight_conn_fold_matches_brute_force_on_random_images() {
        use slap_image::{fast_labels_conn, Connectivity};
        let img = gen::uniform_random(24, 24, 0.35, 77);
        let labels = fast_labels_conn(&img, Connectivity::Eight);
        let run = component_fold_conn::<SumFold>(&img, &labels, Connectivity::Eight, &|_, _| 1u64);
        let mut expect: HashMap<u32, u64> = HashMap::new();
        for (r, c) in img.iter_ones_colmajor() {
            *expect.entry(labels.get(r, c)).or_insert(0) += 1;
        }
        assert_eq!(run.per_component.len(), expect.len());
        for (l, v) in expect {
            assert_eq!(run.value_of(l), Some(v), "component {l}");
        }
    }
}
