//! Pixel adjacency conventions.
//!
//! The paper works with 4-connectivity ("two pixels are connected if there is
//! a path of adjacent (horizontally or vertically) 1-valued pixels from one
//! to the other"). 8-connectivity — the other standard convention in image
//! processing, where diagonal neighbors also touch — is supported throughout
//! the workspace as an extension: the SLAP algorithm accommodates it with a
//! local "diagonal bridge" rule and a widened adjacency witness (see
//! `slap-cc`'s pass documentation), at unchanged asymptotic cost.

/// Which pixels count as adjacent.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Connectivity {
    /// Horizontal and vertical neighbors only (the paper's convention).
    #[default]
    Four,
    /// Horizontal, vertical, and diagonal neighbors.
    Eight,
}

impl Connectivity {
    /// Short stable name (accepted by [`Connectivity::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            Connectivity::Four => "4",
            Connectivity::Eight => "8",
        }
    }

    /// Parses `"4"` or `"8"`.
    pub fn parse(s: &str) -> Option<Connectivity> {
        match s {
            "4" => Some(Connectivity::Four),
            "8" => Some(Connectivity::Eight),
            _ => None,
        }
    }

    /// The neighbor offsets `(dr, dc)` of this convention.
    pub fn offsets(self) -> &'static [(isize, isize)] {
        match self {
            Connectivity::Four => &[(-1, 0), (1, 0), (0, -1), (0, 1)],
            Connectivity::Eight => &[
                (-1, 0),
                (1, 0),
                (0, -1),
                (0, 1),
                (-1, -1),
                (-1, 1),
                (1, -1),
                (1, 1),
            ],
        }
    }

    /// Iterates the in-bounds neighbors of `(row, col)` in a `rows × cols`
    /// grid.
    pub fn neighbors(
        self,
        row: usize,
        col: usize,
        rows: usize,
        cols: usize,
    ) -> impl Iterator<Item = (usize, usize)> {
        self.offsets().iter().filter_map(move |&(dr, dc)| {
            let nr = row.checked_add_signed(dr)?;
            let nc = col.checked_add_signed(dc)?;
            (nr < rows && nc < cols).then_some((nr, nc))
        })
    }

    /// `true` when two distinct pixels are adjacent under this convention.
    pub fn adjacent(self, a: (usize, usize), b: (usize, usize)) -> bool {
        let dr = a.0.abs_diff(b.0);
        let dc = a.1.abs_diff(b.1);
        match self {
            Connectivity::Four => dr + dc == 1,
            Connectivity::Eight => dr.max(dc) == 1,
        }
    }
}

impl std::fmt::Display for Connectivity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}-connectivity", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_has_four_offsets_eight_has_eight() {
        assert_eq!(Connectivity::Four.offsets().len(), 4);
        assert_eq!(Connectivity::Eight.offsets().len(), 8);
    }

    #[test]
    fn neighbors_respect_bounds() {
        let n4: Vec<_> = Connectivity::Four.neighbors(0, 0, 3, 3).collect();
        assert_eq!(n4.len(), 2);
        assert!(n4.contains(&(1, 0)) && n4.contains(&(0, 1)));
        let n8: Vec<_> = Connectivity::Eight.neighbors(0, 0, 3, 3).collect();
        assert_eq!(n8.len(), 3);
        assert!(n8.contains(&(1, 1)));
        let mid8: Vec<_> = Connectivity::Eight.neighbors(1, 1, 3, 3).collect();
        assert_eq!(mid8.len(), 8);
    }

    #[test]
    fn adjacency_matches_offsets() {
        for conn in [Connectivity::Four, Connectivity::Eight] {
            for (r, c) in conn.neighbors(5, 5, 11, 11) {
                assert!(conn.adjacent((5, 5), (r, c)), "{conn} ({r},{c})");
            }
        }
        assert!(!Connectivity::Four.adjacent((5, 5), (6, 6)));
        assert!(Connectivity::Eight.adjacent((5, 5), (6, 6)));
        assert!(!Connectivity::Eight.adjacent((5, 5), (7, 6)));
        assert!(
            !Connectivity::Eight.adjacent((5, 5), (5, 5)),
            "self is not a neighbor"
        );
    }

    #[test]
    fn names_roundtrip() {
        for conn in [Connectivity::Four, Connectivity::Eight] {
            assert_eq!(Connectivity::parse(conn.name()), Some(conn));
        }
        assert_eq!(Connectivity::parse("6"), None);
    }
}
