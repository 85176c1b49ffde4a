//! Space–time traces of pipeline passes and an ASCII Gantt renderer.
//!
//! The virtual-time executor can record, per PE, the exact intervals spent
//! computing, blocked on an empty queue, and driving the link. Rendering
//! them as a space–time diagram (PEs down, time across) makes the paper's
//! pipelining arguments visible: Lemma 1's diagonal wavefront, the idle
//! wedge ahead of it that the §3 idle-compression variant harvests, and the
//! send bursts of the Figure 3(b) comb.

/// What a PE was doing during a [`Span`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SpanKind {
    /// Local computation (union–find work, loop bookkeeping).
    Busy,
    /// Blocked on an empty incoming queue (real machine time; the idle
    /// compression variant spends it on path compression).
    Idle,
    /// Driving the link (one word per `word_steps`).
    Send,
}

impl SpanKind {
    /// The glyph used by [`render_gantt`].
    pub fn glyph(self) -> char {
        match self {
            SpanKind::Busy => '#',
            SpanKind::Idle => '.',
            SpanKind::Send => '>',
        }
    }
}

/// One half-open interval `[start, end)` of a PE's clock.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Start clock (inclusive).
    pub start: u64,
    /// End clock (exclusive).
    pub end: u64,
    /// Activity during the interval.
    pub kind: SpanKind,
}

impl Span {
    /// Interval length in steps.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// `true` for degenerate zero-length spans.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// Appends a span to `spans`, merging with the previous one when contiguous
/// and of the same kind (keeps traces linear in the number of activity
/// *changes*, not in steps).
pub fn push_span(spans: &mut Vec<Span>, kind: SpanKind, start: u64, end: u64) {
    if start == end {
        return;
    }
    debug_assert!(start < end, "span runs backwards");
    if let Some(last) = spans.last_mut() {
        debug_assert!(last.end <= start, "spans out of order");
        if last.kind == kind && last.end == start {
            last.end = end;
            return;
        }
    }
    spans.push(Span { start, end, kind });
}

/// Renders per-PE traces as an ASCII space–time diagram, one row per PE,
/// `width` time bins across. Each bin shows the activity that covered most
/// of it (`#` busy, `.` idle, `>` send, space for "finished / not started").
///
/// Returns an empty string for empty traces.
pub fn render_gantt(traces: &[Vec<Span>], width: usize) -> String {
    let t_max = traces
        .iter()
        .flat_map(|t| t.last())
        .map(|s| s.end)
        .max()
        .unwrap_or(0);
    if t_max == 0 || width == 0 {
        return String::new();
    }
    let width = width.min(t_max as usize);
    let bin = (t_max as f64) / (width as f64);
    let mut out = String::new();
    out.push_str(&format!(
        "time 0..{t_max} steps, {width} bins of {bin:.1} steps ('#' busy, '.' idle, '>' send)\n"
    ));
    let label_w = traces.len().saturating_sub(1).to_string().len().max(2);
    for (pe, spans) in traces.iter().enumerate() {
        out.push_str(&format!("PE {pe:>label_w$} |"));
        let mut cursor = 0usize; // index into spans
        for b in 0..width {
            let lo = (b as f64 * bin) as u64;
            let hi = (((b + 1) as f64) * bin).ceil() as u64;
            // advance to the first span ending after lo
            while cursor < spans.len() && spans[cursor].end <= lo {
                cursor += 1;
            }
            let mut best: Option<(u64, SpanKind)> = None;
            let mut i = cursor;
            while i < spans.len() && spans[i].start < hi {
                let overlap = spans[i].end.min(hi).saturating_sub(spans[i].start.max(lo));
                if overlap > 0 && best.is_none_or(|(b_ov, _)| overlap > b_ov) {
                    best = Some((overlap, spans[i].kind));
                }
                i += 1;
            }
            out.push(best.map_or(' ', |(_, k)| k.glyph()));
        }
        out.push_str("|\n");
    }
    out
}

/// Summary ratios of one PE trace.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpanTotals {
    /// Steps spent computing.
    pub busy: u64,
    /// Steps spent blocked.
    pub idle: u64,
    /// Steps spent sending.
    pub send: u64,
}

/// Sums the step totals of a trace by kind.
pub fn span_totals(spans: &[Span]) -> SpanTotals {
    let mut t = SpanTotals::default();
    for s in spans {
        match s.kind {
            SpanKind::Busy => t.busy += s.len(),
            SpanKind::Idle => t.idle += s.len(),
            SpanKind::Send => t.send += s.len(),
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_span_merges_contiguous_same_kind() {
        let mut v = Vec::new();
        push_span(&mut v, SpanKind::Busy, 0, 5);
        push_span(&mut v, SpanKind::Busy, 5, 9);
        push_span(&mut v, SpanKind::Idle, 9, 12);
        push_span(&mut v, SpanKind::Busy, 12, 13);
        assert_eq!(v.len(), 3);
        assert_eq!(
            v[0],
            Span {
                start: 0,
                end: 9,
                kind: SpanKind::Busy
            }
        );
    }

    #[test]
    fn push_span_drops_empty_intervals() {
        let mut v = Vec::new();
        push_span(&mut v, SpanKind::Idle, 4, 4);
        assert!(v.is_empty());
    }

    #[test]
    fn totals_sum_by_kind() {
        let spans = vec![
            Span {
                start: 0,
                end: 4,
                kind: SpanKind::Busy,
            },
            Span {
                start: 4,
                end: 6,
                kind: SpanKind::Send,
            },
            Span {
                start: 6,
                end: 16,
                kind: SpanKind::Idle,
            },
        ];
        let t = span_totals(&spans);
        assert_eq!((t.busy, t.send, t.idle), (4, 2, 10));
    }

    #[test]
    fn gantt_renders_one_row_per_pe() {
        let traces = vec![
            vec![Span {
                start: 0,
                end: 10,
                kind: SpanKind::Busy,
            }],
            vec![
                Span {
                    start: 0,
                    end: 5,
                    kind: SpanKind::Idle,
                },
                Span {
                    start: 5,
                    end: 10,
                    kind: SpanKind::Busy,
                },
            ],
        ];
        let g = render_gantt(&traces, 10);
        let lines: Vec<&str> = g.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 PEs
        assert!(lines[1].contains("##########"));
        assert!(lines[2].contains("....."));
        assert!(lines[2].contains("#####"));
    }

    #[test]
    fn gantt_handles_empty_traces() {
        assert_eq!(render_gantt(&[], 40), "");
        assert_eq!(render_gantt(&[vec![]], 40), "");
    }

    #[test]
    fn gantt_bins_pick_dominant_activity() {
        // one bin of width 10 covering 7 busy + 3 idle -> '#'
        let traces = vec![vec![
            Span {
                start: 0,
                end: 7,
                kind: SpanKind::Busy,
            },
            Span {
                start: 7,
                end: 10,
                kind: SpanKind::Idle,
            },
        ]];
        let g = render_gantt(&traces, 1);
        assert!(g.lines().nth(1).unwrap().contains('#'));
    }
}
