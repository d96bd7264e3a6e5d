//! Candidate pruning: coarse public bands that bound which record pairs
//! can possibly be Eps-neighbors, so the secure protocols only compare
//! candidates instead of all `n(n−1)/2` pairs.
//!
//! The math is a coarsened version of the [`crate::index::GridIndex`]
//! cell argument. Fix a *band width* `w = coarseness · ceil(sqrt(eps²))`
//! (so `w ≥ eps` for every `coarseness ≥ 1`) and quantize each coordinate
//! to `floor(c / w)`. Two records whose bands differ by at least 2 in any
//! dimension have a per-coordinate gap of at least `w + 1 > eps` there, so
//! their squared distance strictly exceeds `eps²`: pruning them away is
//! *exact* — it can never drop a true neighbor. Conversely every true
//! neighbor pair satisfies `|c₁ − c₂| ≤ eps ≤ w` per coordinate and hence
//! lands in adjacent-or-equal bands, so the 3^d neighboring-band union is
//! a sound candidate set for any `coarseness ≥ 1`.
//!
//! Larger coarseness discloses less (fewer, fatter bands) at the price of
//! larger candidate sets; `coarseness = 1` gives the tightest exact
//! pruning. What a run discloses is recorded by the protocol layer as
//! typed `LeakageLog` events — this module is plaintext geometry only.

use crate::point::{isqrt, Point};

/// Version stamp of the pruning discipline: the band-width formula, cell
/// quantization, and candidate-set semantics above. Recorded in the bench
/// trajectory so a reader knows which builds the E13 scaling rows are
/// comparable with.
pub const PRUNING_DISCIPLINE: &str = "grid-bands-v1";

/// Candidate-generation policy, agreed by both parties in the handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pruning {
    /// The paper's all-pairs evaluation: every record pair is compared
    /// securely. No extra disclosure, `O(n²)` secure comparisons.
    Exhaustive,
    /// Grid-derived candidate sets: only records whose coarse bands
    /// (width `coarseness · ceil(eps)`) are adjacent-or-equal get
    /// compared. Exact for every `coarseness ≥ 1` — labels match the
    /// exhaustive run — but the disclosed bands/candidate cardinalities
    /// are new, explicitly ledgered leakage.
    Grid {
        /// Band width multiplier (≥ 1). 1 = tightest pruning, larger
        /// values coarsen the disclosed bands.
        coarseness: u32,
    },
}

impl Pruning {
    /// Wire encoding for the handshake: 0 = exhaustive, `c` = grid with
    /// coarseness `c`.
    pub fn tag(self) -> u64 {
        match self {
            Pruning::Exhaustive => 0,
            Pruning::Grid { coarseness } => u64::from(coarseness),
        }
    }

    /// Inverse of [`Pruning::tag`]. Returns `None` for tags that do not
    /// fit a `u32` coarseness.
    pub fn from_tag(tag: u64) -> Option<Self> {
        match tag {
            0 => Some(Pruning::Exhaustive),
            c => u32::try_from(c)
                .ok()
                .map(|coarseness| Pruning::Grid { coarseness }),
        }
    }

    /// Human-readable policy name for configs, stamps, and errors.
    pub fn name(self) -> String {
        match self {
            Pruning::Exhaustive => "exhaustive".to_string(),
            Pruning::Grid { coarseness } => format!("grid/{coarseness}"),
        }
    }

    /// `true` when this policy prunes (is not the exhaustive fallback).
    pub fn is_grid(self) -> bool {
        matches!(self, Pruning::Grid { .. })
    }
}

/// The public band width `coarseness · ceil(sqrt(eps²))` — the coarse
/// quantization step every disclosed band is aligned to.
///
/// # Panics
/// Panics if `coarseness` is zero or `eps_sq` is zero (a zero-width band
/// quantizes nothing; configuration validation rejects both upstream).
pub fn band_width(eps_sq: u64, coarseness: u32) -> i64 {
    assert!(coarseness >= 1, "band coarseness must be at least 1");
    assert!(eps_sq > 0, "band quantization needs a positive radius");
    let root = isqrt(eps_sq);
    let ceil_eps = (root + u64::from(root * root < eps_sq)) as i64;
    ceil_eps * i64::from(coarseness)
}

/// Quantizes a coordinate vector to its coarse band cell (per-coordinate
/// floored division by `width`).
pub fn coarse_cell(coords: &[i64], width: i64) -> Vec<i64> {
    coords.iter().map(|&c| c.div_euclid(width)).collect()
}

/// `true` if two band cells are adjacent-or-equal in every dimension —
/// the sound candidate criterion (see the module docs for the proof).
pub fn bands_intersect(a: &[i64], b: &[i64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(&x, &y)| (x - y).abs() <= 1)
}

/// Grid over coarse band cells: near-constant-time candidate lookup (union
/// of the 3^d adjacent cells), the piece that makes candidate generation
/// near-linear instead of an `O(n)` scan per query.
///
/// The occupied cells are kept sorted rather than hashed: three flat
/// buffers however many cells there are, a lookup whose cost does not
/// depend on a per-process hash seed, and — because cells that differ only
/// in their last band sit next to each other — one binary search per row
/// of three adjacent cells instead of one probe per cell.
pub struct CoarseGrid {
    dim: usize,
    width: i64,
    /// The distinct occupied cells, `dim` bands each, ascending.
    cells: Vec<i64>,
    /// Cell `c` holds `members[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
    /// Record indices grouped by cell, ascending within a cell.
    members: Vec<usize>,
}

/// Buffers a caller keeps across [`CoarseGrid::candidates_with`] calls, so
/// a pass over every record allocates once instead of once per record.
#[derive(Debug, Default)]
pub struct CandidateScratch {
    probe: Vec<i64>,
    hits: Vec<usize>,
}

impl CoarseGrid {
    /// Indexes `points` by their coarse band cell of width `width`.
    pub fn from_points(points: &[Point], width: i64) -> Self {
        let dim = points.first().map_or(1, Point::dim);
        let mut cells = Vec::with_capacity(points.len() * dim);
        for p in points {
            debug_assert_eq!(p.dim(), dim, "points must share a dimension");
            cells.extend(p.coords().iter().map(|&c| c.div_euclid(width)));
        }
        Self::from_cells(&cells, dim, width)
    }

    /// Indexes pre-quantized band cells directly — the constructor the
    /// vertical/arbitrary modes use after merging both parties' disclosed
    /// band tables. `cells` is row-major: record `i` sits in the cell
    /// `cells[i * dim..(i + 1) * dim]`.
    ///
    /// # Panics
    /// Panics if `dim` is zero or does not divide `cells.len()`.
    pub fn from_cells(cells: &[i64], dim: usize, width: i64) -> Self {
        assert!(dim >= 1, "band cells need at least one dimension");
        assert_eq!(cells.len() % dim, 0, "band cells must share a dimension");
        let cell_of = |i: usize| &cells[i * dim..(i + 1) * dim];
        let mut members: Vec<usize> = (0..cells.len() / dim).collect();
        members.sort_unstable_by(|&a, &b| cell_of(a).cmp(cell_of(b)).then(a.cmp(&b)));
        let mut distinct = Vec::new();
        let mut starts = Vec::new();
        for (at, &i) in members.iter().enumerate() {
            if at == 0 || cell_of(members[at - 1]) != cell_of(i) {
                distinct.extend_from_slice(cell_of(i));
                starts.push(at);
            }
        }
        starts.push(members.len());
        CoarseGrid {
            dim,
            width,
            cells: distinct,
            starts,
            members,
        }
    }

    /// The band width the grid was built with.
    pub fn width(&self) -> i64 {
        self.width
    }

    /// Number of indexed records.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// `true` if the grid indexes no records.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of distinct occupied band cells.
    pub fn distinct_cells(&self) -> usize {
        self.starts.len() - 1
    }

    fn cell(&self, c: usize) -> &[i64] {
        &self.cells[c * self.dim..(c + 1) * self.dim]
    }

    /// All indexed records whose band is adjacent-or-equal to `cell`, in
    /// ascending index order (the deterministic order both parties need
    /// to stay in lockstep).
    pub fn candidates(&self, cell: &[i64]) -> Vec<usize> {
        let mut scratch = CandidateScratch::default();
        self.candidates_with(cell, &mut scratch);
        scratch.hits
    }

    /// [`CoarseGrid::candidates`] into the caller's reused buffers.
    pub fn candidates_with<'s>(
        &self,
        cell: &[i64],
        scratch: &'s mut CandidateScratch,
    ) -> &'s [usize] {
        assert_eq!(cell.len(), self.dim, "query band dimension mismatch");
        let CandidateScratch { probe, hits } = scratch;
        hits.clear();
        probe.clear();
        probe.extend(cell.iter().map(|b| b - 1));
        let last = self.dim - 1;
        loop {
            // `probe` is the lowest cell of a row of three that differ only
            // in the last band; the occupied ones among them are adjacent.
            let (mut lo, mut hi) = (0, self.distinct_cells());
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.cell(mid) < probe.as_slice() {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            while lo < self.distinct_cells() {
                let found = self.cell(lo);
                if found[..last] != probe[..last] || found[last] > cell[last] + 1 {
                    break;
                }
                hits.extend_from_slice(&self.members[self.starts[lo]..self.starts[lo + 1]]);
                lo += 1;
            }
            // Odometer increment over {-1, 0, 1} in the leading dimensions.
            let mut pos = 0;
            loop {
                if pos == last {
                    hits.sort_unstable();
                    return hits;
                }
                probe[pos] += 1;
                if probe[pos] <= cell[pos] + 1 {
                    break;
                }
                probe[pos] = cell[pos] - 1;
                pos += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::dist_sq;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn tag_roundtrip() {
        for p in [
            Pruning::Exhaustive,
            Pruning::Grid { coarseness: 1 },
            Pruning::Grid { coarseness: 7 },
        ] {
            assert_eq!(Pruning::from_tag(p.tag()), Some(p));
        }
        assert_eq!(Pruning::from_tag(u64::MAX), None);
        assert!(!Pruning::Exhaustive.is_grid());
        assert!(Pruning::Grid { coarseness: 2 }.is_grid());
        assert_eq!(Pruning::Grid { coarseness: 3 }.name(), "grid/3");
    }

    #[test]
    fn band_width_is_coarsened_ceil_eps() {
        assert_eq!(band_width(25, 1), 5);
        assert_eq!(band_width(26, 1), 6); // ceil(sqrt(26)) = 6
        assert_eq!(band_width(25, 3), 15);
    }

    #[test]
    fn band_intersection_is_sound_and_prunes() {
        // Within-eps pairs always land in adjacent-or-equal bands; pairs
        // pruned away are provably farther than eps.
        let mut rng = StdRng::seed_from_u64(11);
        for eps_sq in [4u64, 25, 81] {
            for coarseness in [1u32, 2, 4] {
                let w = band_width(eps_sq, coarseness);
                let points: Vec<Point> = (0..150)
                    .map(|_| {
                        Point::new(vec![rng.random_range(-60..=60), rng.random_range(-60..=60)])
                    })
                    .collect();
                for a in &points {
                    for b in &points {
                        let ca = coarse_cell(a.coords(), w);
                        let cb = coarse_cell(b.coords(), w);
                        if dist_sq(a, b) <= eps_sq {
                            assert!(
                                bands_intersect(&ca, &cb),
                                "neighbor pair pruned: {a:?} {b:?} eps²={eps_sq} w={w}"
                            );
                        }
                        if !bands_intersect(&ca, &cb) {
                            assert!(
                                dist_sq(a, b) > eps_sq,
                                "pruned pair within eps: {a:?} {b:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn coarse_grid_candidates_match_scan() {
        let mut rng = StdRng::seed_from_u64(3);
        let points: Vec<Point> = (0..200)
            .map(|_| Point::new(vec![rng.random_range(-50..=50), rng.random_range(-50..=50)]))
            .collect();
        let w = band_width(49, 1);
        let grid = CoarseGrid::from_points(&points, w);
        assert_eq!(grid.len(), 200);
        assert!(!grid.is_empty());
        assert!(grid.distinct_cells() >= 1);
        assert_eq!(grid.width(), w);
        for q in points.iter().take(30) {
            let qc = coarse_cell(q.coords(), w);
            let want: Vec<usize> = points
                .iter()
                .enumerate()
                .filter(|(_, p)| bands_intersect(&qc, &coarse_cell(p.coords(), w)))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(grid.candidates(&qc), want);
        }
    }

    #[test]
    fn band_candidate_relation_is_symmetric_and_hits_self_once() {
        // The lockstep resolve phase enumerates each unordered candidate
        // pair once by keeping only `y > x` from `candidates(cell(x))`.
        // That is complete only if the relation is symmetric, and drops
        // nothing but mirrors and the self-pair only if every list is
        // duplicate-free and contains its own record exactly once (so the
        // partner relation — candidates minus self — is irreflexive).
        let mut rng = StdRng::seed_from_u64(0x5e1f);
        for _case in 0..80 {
            let dim = rng.random_range(1..=3usize);
            let n = rng.random_range(0..=40usize);
            let span = rng.random_range(1..=30i64);
            let w = band_width(rng.random_range(1..=50u64), rng.random_range(1..=3u32));
            let points: Vec<Point> = (0..n)
                .map(|_| Point::new((0..dim).map(|_| rng.random_range(-span..=span)).collect()))
                .collect();
            let grid = CoarseGrid::from_points(&points, w);
            let candidates: Vec<Vec<usize>> = points
                .iter()
                .map(|p| grid.candidates(&coarse_cell(p.coords(), w)))
                .collect();
            for (x, list) in candidates.iter().enumerate() {
                assert!(
                    list.windows(2).all(|p| p[0] < p[1]),
                    "ascending, no repeats"
                );
                assert!(
                    list.binary_search(&x).is_ok(),
                    "record {x} is its own candidate"
                );
                for &y in list {
                    assert!(
                        candidates[y].binary_search(&x).is_ok(),
                        "{y} is a candidate of {x} but not the reverse (dim {dim}, w {w})"
                    );
                }
            }
        }
    }

    #[test]
    fn from_cells_matches_from_points() {
        let points = vec![
            Point::from([-7i64, 3].as_slice()),
            Point::from([0i64, 0].as_slice()),
            Point::from([12i64, -5].as_slice()),
        ];
        let w = band_width(9, 2);
        let cells: Vec<Vec<i64>> = points.iter().map(|p| coarse_cell(p.coords(), w)).collect();
        let a = CoarseGrid::from_points(&points, w);
        let b = CoarseGrid::from_cells(&cells.concat(), 2, w);
        let mut scratch = CandidateScratch::default();
        for c in &cells {
            assert_eq!(a.candidates(c), b.candidates(c));
            // The reused buffers carry nothing over from the last query.
            assert_eq!(b.candidates_with(c, &mut scratch), a.candidates(c));
        }
        assert_eq!((b.len(), b.distinct_cells()), (3, 3));
        let none = CoarseGrid::from_cells(&[], 2, w);
        assert!(none.is_empty() && none.candidates(&[0, 0]).is_empty());
    }

    #[test]
    #[should_panic(expected = "coarseness")]
    fn zero_coarseness_panics() {
        let _ = band_width(25, 0);
    }

    #[test]
    #[should_panic(expected = "positive radius")]
    fn zero_radius_panics() {
        let _ = band_width(0, 1);
    }
}
