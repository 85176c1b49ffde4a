//! Checks on the strip grids of the `tiled` record.
//!
//! `slap label --engine parallel --threads T` runs the tiled engine at the
//! `T × 1` strip grid with `T` workers; the `tiled` sweep times those grids
//! next to the 2-D ones. These tests hold the strip rows of that record to
//! what a strip-only recording was held to: thread-count-varying timings
//! survive the file round trip, the strip speedup is waived on narrow hosts,
//! the strips must be covered on every family, and a fresh quick sweep
//! carries every strip at its own thread count.

mod tests {
    use crate::record::table::{roundtrips, row};
    use crate::record::{check, Report, Sel};
    use crate::tiled::tests::{fixture, set};
    use crate::tiled::{run, SHAPES};

    /// The `T × 1` strip grids, each at `T` threads.
    fn strips() -> impl Iterator<Item = (usize, &'static str)> {
        SHAPES
            .iter()
            .filter(|s| s.1 == 1 && s.0 == s.2)
            .map(|s| (s.2, s.3))
    }

    fn is_strip(config: &str) -> bool {
        strips().any(|s| s.1 == config)
    }

    /// Gives every strip the timing of a speedup that grows with its
    /// thread count and saturates at 4 threads.
    fn scaling(r: &mut Report) {
        for (threads, config) in strips() {
            set(r, Sel("tiled", config), "best_ns", |_| {
                4000 / (threads as u64).min(4)
            });
        }
    }

    #[test]
    fn report_roundtrips_through_validation() {
        let mut r = fixture(8);
        scaling(&mut r);
        roundtrips(r);
    }

    #[test]
    fn full_validation_waives_the_speedup_on_narrow_hosts() {
        // No speedup at any strip: rejected on a wide host, accepted when
        // recorded on a 1-thread host, where the ratio criteria cannot apply.
        let flat = |r: &mut Report| {
            for (_, config) in strips() {
                set(r, Sel("tiled", config), "best_ns", |_| 4000);
            }
        };
        row(fixture(8), flat, true, Err("need ≥ 1.8×"));
        row(fixture(1), flat, true, Ok(()));
    }

    #[test]
    fn validation_rejects_thin_coverage() {
        let all = fixture(8);
        let mut one_family = all.clone();
        one_family.entries.retain(|e| e.family == "random50");
        let err = check(&one_family.to_json(), false).unwrap_err();
        assert!(err.contains("coverage too thin"), "{err}");
        assert!(err.contains("tiled 8x1@8"), "{err}");
        // Strips recorded on one family only leave the other uncovered,
        // even though its 2-D grids are all present.
        let mut strips_on_one = all;
        strips_on_one
            .entries
            .retain(|e| e.family == "random50" || !is_strip(&e.config));
        let err = check(&strips_on_one.to_json(), false).unwrap_err();
        assert!(err.contains("coverage hole: blobs/"), "{err}");
        assert!(err.contains("lacks tiled 1x1@1"), "{err}");
    }

    #[test]
    fn quick_sweep_smoke() {
        let r = run(true, &mut |_| {});
        for (threads, config) in strips() {
            let rows: Vec<_> = r.entries.iter().filter(|e| e.config == config).collect();
            assert!(!rows.is_empty(), "no {config} rows");
            for e in rows {
                assert_eq!(e.threads, threads as u64, "{config}");
                assert_eq!(e.matches_reference, Some(true), "{config}");
            }
        }
        check(&r.to_json(), false).expect("fresh quick sweep validates");
    }
}
