//! The correctness gate: every output the benchmark times is checked, and
//! every check counts as one attempted operation.

use slap_image::{ComponentInfo, LabelGrid, RetiredComponent};

/// Failures printed to stderr before the rest are only counted.
const REPORTED_FAILURES: u64 = 10;

/// Attempted and failed operations of one run.
#[derive(Debug, Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    /// Counts one operation, failed when `outcome` is an error.
    pub fn check(&mut self, outcome: Result<(), String>, what: &str) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(what, &e);
        }
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        if self.failed <= REPORTED_FAILURES {
            eprintln!("perfbench: FAILED {what}: {why}");
        }
    }

    pub fn merge(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    pub fn error_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Two label grids are bit-identical.
pub fn same_grid(want: &LabelGrid, got: &LabelGrid) -> Result<(), String> {
    if (want.rows(), want.cols()) != (got.rows(), got.cols()) {
        return Err(format!(
            "grid is {}x{}, expected {}x{}",
            got.rows(),
            got.cols(),
            want.rows(),
            want.cols()
        ));
    }
    match want
        .as_slice()
        .iter()
        .zip(got.as_slice())
        .position(|(a, b)| a != b)
    {
        None => Ok(()),
        Some(i) => Err(format!("grids differ first at cell {i}")),
    }
}

pub fn same_count(got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("count {got}, expected {want}"))
    }
}

/// Per-component statistics cover `components` components and `ones`
/// foreground pixels.
pub fn stats_match(stats: &[ComponentInfo], components: u64, ones: u64) -> Result<(), String> {
    same_count(stats.len() as u64, components)?;
    let area: u64 = stats.iter().map(|c| c.pixels as u64).sum();
    same_count(area, ones).map_err(|e| format!("foreground area: {e}"))
}

/// Retired records number `components`, and their areas sum to `ones`.
pub fn records_match(
    records: &[RetiredComponent],
    components: u64,
    ones: u64,
) -> Result<(), String> {
    same_count(records.len() as u64, components)?;
    let area: u64 = records.iter().map(|r| r.area).sum();
    same_count(area, ones).map_err(|e| format!("foreground area: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use slap_image::{fast_labels_conn, gen, label_stream, BitmapRows, Connectivity};

    #[test]
    fn corrupted_outputs_fail_the_gate() {
        let img = gen::by_name("random50", 64, 3).expect("family");
        let ones = img.count_ones() as u64;
        let grid = fast_labels_conn(&img, Connectivity::Four);
        let comps = grid.component_stats();
        let n = comps.len() as u64;
        assert!(same_grid(&grid, &grid.clone()).is_ok());
        assert!(stats_match(&comps, n, ones).is_ok());

        let mut bad = grid.clone();
        let (r, c) = (0..64 * 64)
            .map(|i| (i / 64, i % 64))
            .find(|&(r, c)| grid.is_foreground(r, c))
            .unwrap();
        bad.set(r, c, LabelGrid::BACKGROUND);
        assert!(same_grid(&grid, &bad).is_err());
        assert!(stats_match(&bad.component_stats(), n, ones).is_err());

        let mut records = label_stream(&mut BitmapRows::new(&img), Connectivity::Four)
            .unwrap()
            .components;
        assert!(records_match(&records, n, ones).is_ok());
        records[0].area += 1;
        assert!(records_match(&records, n, ones).is_err());
        records.pop();
        assert!(records_match(&records, n, ones).is_err());
    }

    #[test]
    fn ledger_counts_every_check() {
        let mut l = Ledger::default();
        l.check(Ok(()), "a");
        l.check(Err("boom".into()), "b");
        assert_eq!((l.attempted, l.failed), (2, 1));
        assert_eq!(l.error_frac(), 0.5);
    }
}
