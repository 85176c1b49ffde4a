//! Step-accounting reports produced by the executors.

/// Per-PE accounting from one pipeline pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PeStats {
    /// Local clock when the PE finished the pass (after its EOS enqueue).
    pub finish: u64,
    /// Units of real work charged.
    pub busy: u64,
    /// Steps spent blocked on an empty incoming queue.
    pub idle: u64,
    /// Of the idle steps, how many were filled with useful work by an idle
    /// hook (e.g. path compression while waiting).
    pub idle_used: u64,
    /// Messages sent to the next PE (excluding EOS).
    pub sent: u64,
    /// Messages received (excluding EOS).
    pub received: u64,
    /// Largest number of ready-but-unconsumed messages observed in the
    /// incoming queue (a memory-pressure indicator).
    pub max_queue: u64,
}

/// Whole-pass accounting from the virtual-time pipeline executor.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Per-PE statistics in array order.
    pub per_pe: Vec<PeStats>,
    /// Completion time of the pass: `max` of per-PE finish clocks.
    pub makespan: u64,
    /// Total messages moved across all links (excluding EOS).
    pub messages: u64,
}

impl PipelineReport {
    /// Total busy units across PEs.
    pub fn total_busy(&self) -> u64 {
        self.per_pe.iter().map(|p| p.busy).sum()
    }

    /// Total idle steps across PEs.
    pub fn total_idle(&self) -> u64 {
        self.per_pe.iter().map(|p| p.idle).sum()
    }

    /// Largest per-PE queue depth seen anywhere in the array.
    pub fn max_queue(&self) -> u64 {
        self.per_pe.iter().map(|p| p.max_queue).max().unwrap_or(0)
    }

    /// Combines two sequential passes (e.g. union-find pass then label pass
    /// when the SIMD controller runs them phase by phase): makespans add,
    /// per-PE stats add componentwise.
    pub fn then(&self, later: &PipelineReport) -> PipelineReport {
        assert_eq!(self.per_pe.len(), later.per_pe.len());
        let per_pe = self
            .per_pe
            .iter()
            .zip(later.per_pe.iter())
            .map(|(a, b)| PeStats {
                finish: a.finish + b.finish,
                busy: a.busy + b.busy,
                idle: a.idle + b.idle,
                idle_used: a.idle_used + b.idle_used,
                sent: a.sent + b.sent,
                received: a.received + b.received,
                max_queue: a.max_queue.max(b.max_queue),
            })
            .collect();
        PipelineReport {
            per_pe,
            makespan: self.makespan + later.makespan,
            messages: self.messages + later.messages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(finish: u64, busy: u64) -> PeStats {
        PeStats {
            finish,
            busy,
            ..Default::default()
        }
    }

    #[test]
    fn totals_sum_over_pes() {
        let r = PipelineReport {
            per_pe: vec![stats(5, 3), stats(9, 7)],
            makespan: 9,
            messages: 4,
        };
        assert_eq!(r.total_busy(), 10);
        assert_eq!(r.total_idle(), 0);
    }

    #[test]
    fn then_adds_makespans_and_stats() {
        let a = PipelineReport {
            per_pe: vec![stats(5, 3), stats(9, 7)],
            makespan: 9,
            messages: 4,
        };
        let b = PipelineReport {
            per_pe: vec![stats(2, 2), stats(3, 3)],
            makespan: 3,
            messages: 1,
        };
        let c = a.then(&b);
        assert_eq!(c.makespan, 12);
        assert_eq!(c.messages, 5);
        assert_eq!(c.per_pe[1].busy, 10);
    }

    #[test]
    #[should_panic]
    fn then_requires_same_width() {
        let a = PipelineReport {
            per_pe: vec![stats(1, 1)],
            makespan: 1,
            messages: 0,
        };
        let b = PipelineReport::default();
        a.then(&b);
    }
}
