//! Algorithm CC (paper Fig. 2): the complete SLAP component labeling.

use crate::passes::{find_pass, label_pass, readout_pass, unionfind_pass};
use crate::stitch::stitch_column;
use crate::NIL;
use slap_image::{Bitmap, Connectivity, LabelGrid};
use slap_machine::{costs, run_pipeline_pooled, PipelineBuffers, PipelineConfig, PipelineReport};
use slap_unionfind::{
    BlumUf, IdealO1, QuickFind, RankHalvingUf, RemUf, SplittingUf, TarjanUf, UfKind, UnionFind,
    WeightedUf,
};

/// When does a set re-forward label messages in `Label-Pass`?
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ForwardPolicy {
    /// Forward a label only when it strictly improves (lowers) the set's
    /// current label. Fewer messages, identical final labels (the minimum
    /// still reaches everyone). The default.
    #[default]
    OnImprovement,
    /// Forward every arrival, like the literal pseudocode of Fig. 6 line 14.
    Always,
}

/// Algorithm variant switches (paper §3 discusses the forwarding and
/// compression variants; `connectivity` is this workspace's extension).
#[derive(Clone, Copy, Debug)]
pub struct CcOptions {
    /// Pixel adjacency convention. The paper's algorithm is 4-connectivity;
    /// [`Connectivity::Eight`] enables the diagonal-bridge extension (see
    /// `passes` docs) at unchanged asymptotic cost.
    pub connectivity: Connectivity,
    /// Label re-forwarding policy in `Label-Pass`.
    pub forward_policy: ForwardPolicy,
    /// Forward an incoming relevant-union pair immediately when both rows
    /// visibly touch the next column, before running the finds (the paper's
    /// speculative-forwarding idea, in a form that never needs quashing for
    /// *correctness*). Caution: on solid images an already-merged pair is
    /// re-forwarded by every later column, so this variant can cascade
    /// (experiment E16 measures a 61× blow-up on `full`); the full §3
    /// mechanism with quashing
    /// ([`lockstep_cc::label_components_lockstep_quash`](crate::lockstep_cc::label_components_lockstep_quash))
    /// contains it.
    pub eager_forward: bool,
    /// Spend blocked-on-empty-queue time on union–find path compression
    /// (the paper's idle-compression idea).
    pub idle_compression: bool,
    /// Include the image input phase (`3·rows` steps) in `total_steps`.
    pub charge_load: bool,
    /// Steps to push one message across a link: 1 on the word-wide SLAP,
    /// or the message bit width on the Theorem 5 bit-serial SLAP.
    pub word_steps: u64,
}

impl Default for CcOptions {
    fn default() -> Self {
        CcOptions {
            connectivity: Connectivity::Four,
            forward_policy: ForwardPolicy::OnImprovement,
            eager_forward: false,
            idle_compression: false,
            charge_load: false,
            word_steps: costs::WORD_STEPS,
        }
    }
}

/// Step accounting for one directional (left- or right-connected) pass.
#[derive(Clone, Debug, Default)]
pub struct PassMetrics {
    /// The pipelined `Union-Find-Pass` (Fig. 5).
    pub uf_pass: PipelineReport,
    /// Makespan of the local find pass (step 2 of Fig. 4): max units over
    /// PEs, since all PEs run it concurrently.
    pub find_makespan: u64,
    /// Total find-pass units over all PEs.
    pub find_busy: u64,
    /// The pipelined `Label-Pass` (Fig. 6).
    pub label_pass: PipelineReport,
    /// Makespan of the local per-pixel readout (step 4 of Fig. 4): max units
    /// over PEs.
    pub readout_makespan: u64,
    /// Total readout units over all PEs.
    pub readout_busy: u64,
}

impl PassMetrics {
    /// Machine time of the whole pass (the SIMD controller runs the four
    /// phases back to back).
    pub fn makespan(&self) -> u64 {
        self.uf_pass.makespan
            + self.find_makespan
            + self.label_pass.makespan
            + self.readout_makespan
    }
}

/// Step accounting for a full Algorithm CC run.
#[derive(Clone, Debug, Default)]
pub struct CcMetrics {
    /// The left-connected labeling pass.
    pub left: PassMetrics,
    /// The right-connected labeling pass (mirrored run).
    pub right: PassMetrics,
    /// Makespan of the per-PE stitch (max units over PEs).
    pub stitch_makespan: u64,
    /// Total stitch units over all PEs.
    pub stitch_busy: u64,
    /// Image input phase steps (0 unless `CcOptions::charge_load`).
    pub load_steps: u64,
    /// End-to-end machine time: load + left + right + stitch.
    pub total_steps: u64,
}

/// Result of one Algorithm CC run: the labeling plus exact step accounting.
#[derive(Clone, Debug)]
pub struct CcRun {
    /// Per-pixel labels (minimum column-major position per component —
    /// identical to the oracle's output, not merely the same partition).
    pub labels: LabelGrid,
    /// Step accounting.
    pub metrics: CcMetrics,
}

/// One directional pass over `cols` (already mirrored for the right pass).
/// `label_offset` keeps the two passes' label spaces disjoint.
/// Returns per-column per-row labels plus metrics.
fn directional_pass<U: UnionFind>(
    cols: &slap_image::Columns,
    opts: &CcOptions,
    label_offset: u32,
    bufs: &mut PipelineBuffers<(u32, u32)>,
) -> (Vec<Vec<u32>>, PassMetrics) {
    let n_pes = cols.cols();
    let rows = cols.rows();
    let cfg = PipelineConfig {
        n_pes,
        word_steps: opts.word_steps,
        start_clock: 0,
    };
    // Phase 1+2: Union-Find-Pass (pipelined)
    let (mut states, uf_report) = run_pipeline_pooled(cfg, bufs, |pe, ctx| {
        unionfind_pass::<U>(cols, opts, pe, ctx)
    });
    // Step 2 of Left-Components: local finds (concurrent across PEs)
    let mut find_makespan = 0u64;
    let mut find_busy = 0u64;
    for (pe, state) in states.iter_mut().enumerate() {
        let units = find_pass(cols, pe, state);
        find_makespan = find_makespan.max(units);
        find_busy += units;
    }
    // Step 3: Label-Pass (pipelined)
    let mut label_slots: Vec<Vec<u32>> =
        states.iter().map(|s| vec![NIL; s.uf.id_bound()]).collect();
    let (_, label_report) = run_pipeline_pooled(cfg, bufs, |pe, ctx| {
        let base = label_offset + (pe * rows) as u32;
        label_pass::<U>(
            cols,
            opts,
            pe,
            &mut states[pe],
            &mut label_slots[pe],
            base,
            ctx,
        )
    });
    // Step 4: per-pixel readout (local, concurrent)
    let mut readout_makespan = 0u64;
    let mut readout_busy = 0u64;
    let col_labels: Vec<Vec<u32>> = states
        .iter_mut()
        .enumerate()
        .map(|(pe, state)| {
            let (row_labels, units) = readout_pass(cols, pe, state, &label_slots[pe]);
            readout_makespan = readout_makespan.max(units);
            readout_busy += units;
            row_labels
        })
        .collect();
    (
        col_labels,
        PassMetrics {
            uf_pass: uf_report,
            find_makespan,
            find_busy,
            label_pass: label_report,
            readout_makespan,
            readout_busy,
        },
    )
}

/// Labels the connected components of `img` on the simulated SLAP with
/// union–find implementation `U`, under the given options.
///
/// The output labeling is exactly the oracle labeling (minimum column-major
/// position per component). See [`CcMetrics`] for the step accounting.
pub fn label_components<U: UnionFind>(img: &Bitmap, opts: &CcOptions) -> CcRun {
    let rows = img.rows();
    let ncols = img.cols();
    assert!(
        2 * (rows as u64) * (ncols as u64) < u32::MAX as u64,
        "image too large for the u32 label spaces of the two passes"
    );
    let cols = img.columns();
    // One message-buffer pool serves all four pipelined passes of the run:
    // RowPair and LabelMsg share the (u32, u32) wire format.
    let mut bufs = PipelineBuffers::new();
    let (left_labels, left) = directional_pass::<U>(&cols, opts, 0, &mut bufs);
    let flipped = img.flip_horizontal();
    let fcols = flipped.columns();
    let offset = (rows * ncols) as u32;
    let (right_labels_flipped, right) = directional_pass::<U>(&fcols, opts, offset, &mut bufs);

    // Step 3 of Algorithm CC: per-PE stitch (concurrent across PEs).
    let mut grid = LabelGrid::new_background(rows, ncols);
    let mut stitch_makespan = 0u64;
    let mut stitch_busy = 0u64;
    for c in 0..ncols {
        let right_col = &right_labels_flipped[ncols - 1 - c];
        let (finals, units) = stitch_column(&left_labels[c], right_col);
        stitch_makespan = stitch_makespan.max(units);
        stitch_busy += units;
        for (j, &label) in finals.iter().enumerate() {
            if label != NIL {
                grid.set(j, c, label);
            }
        }
    }
    let load_steps = if opts.charge_load {
        costs::load_steps(rows)
    } else {
        0
    };
    let total_steps = load_steps + left.makespan() + right.makespan() + stitch_makespan;
    CcRun {
        labels: grid,
        metrics: CcMetrics {
            left,
            right,
            stitch_makespan,
            stitch_busy,
            load_steps,
            total_steps,
        },
    }
}

/// [`label_components`] with a runtime-selected union–find implementation.
pub fn label_components_kind(img: &Bitmap, kind: UfKind, opts: &CcOptions) -> CcRun {
    match kind {
        UfKind::QuickFind => label_components::<QuickFind>(img, opts),
        UfKind::Weighted => label_components::<WeightedUf>(img, opts),
        UfKind::Tarjan => label_components::<TarjanUf>(img, opts),
        UfKind::RankHalving => label_components::<RankHalvingUf>(img, opts),
        UfKind::Splitting => label_components::<SplittingUf>(img, opts),
        UfKind::Rem => label_components::<RemUf>(img, opts),
        UfKind::Blum => label_components::<BlumUf>(img, opts),
        UfKind::IdealO1 => label_components::<IdealO1>(img, opts),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slap_image::{fast_labels, fast_labels_conn, gen};

    fn check_exact(img: &Bitmap, opts: &CcOptions) {
        let truth = fast_labels_conn(img, opts.connectivity);
        for &kind in UfKind::ALL {
            let run = label_components_kind(img, kind, opts);
            assert_eq!(
                run.labels, truth,
                "uf={kind} options={opts:?} image:\n{img:?}"
            );
        }
    }

    fn eight(opts: CcOptions) -> CcOptions {
        CcOptions {
            connectivity: Connectivity::Eight,
            ..opts
        }
    }

    #[test]
    fn labels_tiny_shapes_exactly() {
        for art in [
            "#",
            ".",
            "##\n##\n",
            "#.\n.#\n",
            "###\n..#\n###\n",
            "#.#\n###\n#.#\n",
            "#####\n.....\n#####\n",
            ".#.\n###\n.#.\n",
        ] {
            check_exact(&Bitmap::from_art(art), &CcOptions::default());
        }
    }

    #[test]
    fn labels_single_column_and_single_row() {
        check_exact(&Bitmap::from_art("#\n#\n.\n#\n"), &CcOptions::default());
        check_exact(&Bitmap::from_art("##.#"), &CcOptions::default());
    }

    #[test]
    fn labels_rectangular_images() {
        let img = gen::uniform_random(13, 37, 0.45, 3);
        check_exact(&img, &CcOptions::default());
        let img = gen::uniform_random(37, 13, 0.45, 4);
        check_exact(&img, &CcOptions::default());
    }

    #[test]
    fn labels_all_generators_exactly() {
        for name in gen::WORKLOADS {
            let img = gen::by_name(name, 24, 11).unwrap();
            let truth = fast_labels(&img);
            let run = label_components::<TarjanUf>(&img, &CcOptions::default());
            assert_eq!(run.labels, truth, "workload {name}");
        }
    }

    #[test]
    fn all_uf_kinds_agree_on_adversarial_images() {
        for name in ["fig3a", "comb", "tournament", "evenrows", "fan"] {
            let img = gen::by_name(name, 32, 5).unwrap();
            check_exact(&img, &CcOptions::default());
        }
    }

    #[test]
    fn variants_produce_identical_labels() {
        let img = gen::uniform_random(40, 40, 0.5, 21);
        let truth = fast_labels(&img);
        for eager in [false, true] {
            for idle in [false, true] {
                for policy in [ForwardPolicy::OnImprovement, ForwardPolicy::Always] {
                    let opts = CcOptions {
                        forward_policy: policy,
                        eager_forward: eager,
                        idle_compression: idle,
                        ..CcOptions::default()
                    };
                    check_exact(&img, &opts);
                    let _ = &truth;
                }
            }
        }
    }

    #[test]
    fn forward_always_sends_at_least_as_many_messages() {
        let img = gen::by_name("fig3a", 48, 1).unwrap();
        let a = label_components::<TarjanUf>(
            &img,
            &CcOptions {
                forward_policy: ForwardPolicy::Always,
                ..CcOptions::default()
            },
        );
        let b = label_components::<TarjanUf>(&img, &CcOptions::default());
        assert!(a.metrics.left.label_pass.messages >= b.metrics.left.label_pass.messages);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn total_steps_accumulate_all_phases() {
        let img = gen::uniform_random(32, 32, 0.5, 2);
        let run = label_components::<IdealO1>(&img, &CcOptions::default());
        let m = &run.metrics;
        assert_eq!(
            m.total_steps,
            m.left.makespan() + m.right.makespan() + m.stitch_makespan
        );
        let loaded = label_components::<IdealO1>(
            &img,
            &CcOptions {
                charge_load: true,
                ..CcOptions::default()
            },
        );
        assert_eq!(loaded.metrics.total_steps, m.total_steps + 3 * 32);
    }

    #[test]
    fn ideal_uf_runs_in_linear_steps() {
        // Lemma 2 smoke test: with O(1) union-find the makespan grows
        // linearly; check steps/n stays within a band across a size sweep.
        let mut ratios = Vec::new();
        for n in [32usize, 64, 128] {
            let img = gen::uniform_random(n, n, 0.5, 9);
            let run = label_components::<IdealO1>(&img, &CcOptions::default());
            ratios.push(run.metrics.total_steps as f64 / n as f64);
        }
        let (min, max) = (
            ratios.iter().cloned().fold(f64::MAX, f64::min),
            ratios.iter().cloned().fold(0.0f64, f64::max),
        );
        assert!(max / min < 1.6, "steps/n drifts superlinearly: {ratios:?}");
    }

    #[test]
    fn empty_and_full_images() {
        check_exact(&Bitmap::new(16, 16), &CcOptions::default());
        check_exact(&gen::full(16, 16), &CcOptions::default());
    }

    #[test]
    fn eight_conn_labels_tiny_diagonal_shapes_exactly() {
        for art in [
            "#.\n.#\n",
            ".#\n#.\n",
            "#.#\n.#.\n#.#\n",
            "#..\n.#.\n..#\n",
            "#.#\n...\n#.#\n",
            "##.\n..#\n##.\n",
            "#.#.#\n.....\n#.#.#\n",
        ] {
            check_exact(&Bitmap::from_art(art), &eight(CcOptions::default()));
        }
    }

    #[test]
    fn eight_conn_fuses_antidiagonals() {
        let img = gen::by_name("antidiag", 32, 1).unwrap();
        let run = label_components::<TarjanUf>(&img, &eight(CcOptions::default()));
        let truth = fast_labels_conn(&img, Connectivity::Eight);
        assert_eq!(run.labels, truth);
        // Under 4-connectivity every pixel is a singleton; under
        // 8-connectivity each anti-diagonal fuses into one component.
        let four = fast_labels(&img);
        assert_eq!(four.component_count(), img.count_ones());
        assert!(truth.component_count() < four.component_count() / 4);
    }

    #[test]
    fn eight_conn_labels_all_generators_exactly() {
        for name in gen::WORKLOADS {
            let img = gen::by_name(name, 24, 11).unwrap();
            let opts = eight(CcOptions::default());
            let truth = fast_labels_conn(&img, Connectivity::Eight);
            let run = label_components::<TarjanUf>(&img, &opts);
            assert_eq!(run.labels, truth, "workload {name}");
        }
    }

    #[test]
    fn eight_conn_all_uf_kinds_agree_on_adversarial_images() {
        for name in ["fig3a", "comb", "staircase", "checker", "maze"] {
            let img = gen::by_name(name, 24, 5).unwrap();
            check_exact(&img, &eight(CcOptions::default()));
        }
    }

    #[test]
    fn eight_conn_variants_produce_identical_labels() {
        let img = gen::uniform_random(36, 36, 0.45, 23);
        for eager in [false, true] {
            for idle in [false, true] {
                for policy in [ForwardPolicy::OnImprovement, ForwardPolicy::Always] {
                    let opts = eight(CcOptions {
                        forward_policy: policy,
                        eager_forward: eager,
                        idle_compression: idle,
                        ..CcOptions::default()
                    });
                    check_exact(&img, &opts);
                }
            }
        }
    }

    #[test]
    fn eight_conn_rectangular_images() {
        check_exact(
            &gen::uniform_random(11, 37, 0.4, 6),
            &eight(CcOptions::default()),
        );
        check_exact(
            &gen::uniform_random(37, 11, 0.4, 7),
            &eight(CcOptions::default()),
        );
        check_exact(&Bitmap::from_art("#\n.\n#\n"), &eight(CcOptions::default()));
        check_exact(&Bitmap::from_art("#.#"), &eight(CcOptions::default()));
    }

    #[test]
    fn eight_conn_density_sweep_matches_oracle() {
        for (i, density) in [0.1, 0.3, 0.5, 0.7, 0.9].iter().enumerate() {
            let img = gen::uniform_random(28, 28, *density, 100 + i as u64);
            check_exact(&img, &eight(CcOptions::default()));
        }
    }
}
