//! The DBSCAN algorithm (Ester et al., KDD '96), structured after the
//! paper's Algorithms 5 & 6, plus the horizontal-reference variant matching
//! Algorithms 3 & 4.

use crate::index::{GridIndex, LinearIndex, NeighborIndex};
use crate::point::{dist_sq, Point};
use std::collections::VecDeque;

/// Final label of a point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// Not density-reachable from any core point (Definition 4).
    Noise,
    /// Member of the cluster with this id (ids are dense, starting at 0).
    Cluster(usize),
}

impl Label {
    /// The cluster id, or `None` for noise.
    pub fn cluster(self) -> Option<usize> {
        match self {
            Label::Noise => None,
            Label::Cluster(id) => Some(id),
        }
    }
}

/// Global density parameters (`Eps`, `MinPts` of the paper). The radius is
/// carried squared so all arithmetic stays in exact integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbscanParams {
    /// Squared neighborhood radius; a point `q` is a neighbor of `p` when
    /// `dist²(p, q) ≤ eps_sq`.
    pub eps_sq: u64,
    /// Minimum neighborhood size (including the point itself) for a core
    /// point.
    pub min_pts: usize,
}

/// A completed clustering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Clustering {
    /// Per-point labels, parallel to the input slice.
    pub labels: Vec<Label>,
    /// Number of clusters discovered.
    pub num_clusters: usize,
}

impl Clustering {
    /// Number of noise points.
    pub fn noise_count(&self) -> usize {
        self.labels.iter().filter(|l| **l == Label::Noise).count()
    }

    /// Sizes of each cluster, indexed by cluster id.
    pub fn cluster_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_clusters];
        for label in &self.labels {
            if let Label::Cluster(id) = label {
                sizes[*id] += 1;
            }
        }
        sizes
    }
}

/// Internal per-point state during expansion (Algorithm 5's UNCLASSIFIED /
/// NOISE / ClusterId).
#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    Unclassified,
    Noise,
    Cluster(usize),
}

/// Runs DBSCAN over `points`, choosing a grid index when it pays off.
pub fn dbscan(points: &[Point], params: DbscanParams) -> Clustering {
    if points.is_empty() {
        return Clustering {
            labels: Vec::new(),
            num_clusters: 0,
        };
    }
    // The grid wins once candidate pruning beats its constant factor; for
    // the small sets SMC can afford, the scan is often faster.
    if points.len() >= 64 && params.eps_sq > 0 {
        let index = GridIndex::new(points, params.eps_sq);
        dbscan_with_index(points, params, &index)
    } else {
        let index = LinearIndex::new(points, params.eps_sq);
        dbscan_with_index(points, params, &index)
    }
}

/// Runs DBSCAN with a caller-provided region-query index.
///
/// Structure mirrors Algorithms 5 & 6 line by line: the privacy-preserving
/// vertical protocol must produce identical labels given identical point
/// order, which the `vertical_matches_plaintext_exactly` integration test
/// asserts.
pub fn dbscan_with_index(
    points: &[Point],
    params: DbscanParams,
    index: &impl NeighborIndex,
) -> Clustering {
    dbscan_with_core_test(points, index, |_, own_count| own_count >= params.min_pts)
}

/// Algorithms 3–6 with the core-point decision left to the caller: the
/// expansion traverses `index`'s neighbourhoods of `points` exactly as
/// [`dbscan_with_index`] does, but whether point `i` is a core point is
/// whatever `is_core(i, own_count)` says, `own_count` being the size of
/// `i`'s neighbourhood in `index` (itself included).
///
/// A point can be tested more than once (a noise point sitting in the seed
/// set of a later cluster is), so `is_core` must answer the same for the
/// same point — the point-holding protocol drivers resolve every answer
/// with the peer first and pass a table lookup.
pub fn dbscan_with_core_test<I: NeighborIndex + ?Sized>(
    points: &[Point],
    index: &I,
    is_core: impl FnMut(usize, usize) -> bool,
) -> Clustering {
    expand(points.len(), |i| index.region_query(&points[i]), is_core)
}

/// The one expansion loop behind every index-shaped entry point:
/// Algorithm 5's scan over unclassified points with Algorithm 6
/// (`ExpandCluster`) inlined. `neighborhood(i)` yields the ascending
/// indices within `Eps` of point `i`, itself included.
fn expand<N: AsRef<[usize]>>(
    n: usize,
    mut neighborhood: impl FnMut(usize) -> N,
    mut is_core: impl FnMut(usize, usize) -> bool,
) -> Clustering {
    let mut states = vec![State::Unclassified; n];
    let mut next_cluster = 0usize;
    let mut queue: VecDeque<usize> = VecDeque::new();
    for i in 0..n {
        if states[i] != State::Unclassified {
            continue;
        }
        let seeds = neighborhood(i);
        let seeds = seeds.as_ref();
        if !is_core(i, seeds.len()) {
            // "no core point" — mark only the query point.
            states[i] = State::Noise;
            continue;
        }
        let cluster_id = next_cluster;
        next_cluster += 1;
        // changeClusterIds(seeds, ClusterId); seeds.delete(Point)
        for &s in seeds {
            states[s] = State::Cluster(cluster_id);
            if s != i {
                queue.push_back(s);
            }
        }
        while let Some(current) = queue.pop_front() {
            let result = neighborhood(current);
            let result = result.as_ref();
            if is_core(current, result.len()) {
                for &neighbor in result {
                    match states[neighbor] {
                        State::Unclassified => {
                            queue.push_back(neighbor);
                            states[neighbor] = State::Cluster(cluster_id);
                        }
                        State::Noise => {
                            // Border point: claimed but not expanded through.
                            states[neighbor] = State::Cluster(cluster_id);
                        }
                        State::Cluster(_) => {}
                    }
                }
            }
        }
    }
    finish(states, next_cluster)
}

/// A symmetric Eps-neighbour graph over `n` points in CSR form:
/// `neighbors(x)` are the points within `Eps` of `x`, ascending, *excluding*
/// `x` itself (a point always neighbours itself; storing that would cost a
/// slot per point to say nothing). Four bytes per directed edge.
pub struct NeighborGraph {
    offsets: Vec<usize>,
    rows: Vec<u32>,
}

impl NeighborGraph {
    /// Builds the adjacency from the undirected edges `(x, y)`, `x < y`,
    /// given in ascending order — every row then comes out sorted without
    /// a sort.
    ///
    /// # Panics
    /// Panics if an endpoint is `≥ n`.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Self {
        debug_assert!(
            edges.windows(2).all(|w| w[0] < w[1]) && edges.iter().all(|&(x, y)| x < y),
            "edges must be ascending pairs x < y"
        );
        let mut offsets = vec![0usize; n + 1];
        for &(x, y) in edges {
            offsets[x as usize + 1] += 1;
            offsets[y as usize + 1] += 1;
        }
        for x in 0..n {
            offsets[x + 1] += offsets[x];
        }
        let mut cursor = offsets.clone();
        let mut rows = vec![0u32; 2 * edges.len()];
        for &(x, y) in edges {
            rows[cursor[x as usize]] = y;
            cursor[x as usize] += 1;
            rows[cursor[y as usize]] = x;
            cursor[y as usize] += 1;
        }
        NeighborGraph { offsets, rows }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// `true` if the graph has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The points within `Eps` of `x`, ascending, excluding `x`.
    pub fn neighbors(&self, x: usize) -> &[u32] {
        &self.rows[self.offsets[x]..self.offsets[x + 1]]
    }
}

/// Runs the Algorithm 5 & 6 expansion over a resolved [`NeighborGraph`]:
/// the same visiting order and labels as [`dbscan_with_index`] over an
/// index answering the same neighbourhoods. `on_region_query(x, count)` is
/// called once per region query, in query order, with the neighbourhood
/// size *including* `x` — the hook the lockstep protocols hang their
/// per-query disclosure ledger on.
pub fn dbscan_over_graph(
    graph: &NeighborGraph,
    params: DbscanParams,
    mut on_region_query: impl FnMut(usize, usize),
) -> Clustering {
    // The neighbourhood of `x` is its row plus `x` itself, which every
    // branch below already treats as classified — so only the count needs
    // the `+ 1`.
    let mut region_query = |x: usize| {
        let row = graph.neighbors(x);
        on_region_query(x, row.len() + 1);
        row
    };
    let mut states = vec![State::Unclassified; graph.len()];
    let mut next_cluster = 0usize;
    let mut queue: VecDeque<usize> = VecDeque::new();
    for i in 0..graph.len() {
        if states[i] != State::Unclassified {
            continue;
        }
        let seeds = region_query(i);
        if seeds.len() + 1 < params.min_pts {
            states[i] = State::Noise;
            continue;
        }
        let cluster_id = next_cluster;
        next_cluster += 1;
        states[i] = State::Cluster(cluster_id);
        for &s in seeds {
            states[s as usize] = State::Cluster(cluster_id);
            queue.push_back(s as usize);
        }
        while let Some(current) = queue.pop_front() {
            let result = region_query(current);
            if result.len() + 1 >= params.min_pts {
                for &neighbor in result {
                    let neighbor = neighbor as usize;
                    match states[neighbor] {
                        State::Unclassified => {
                            queue.push_back(neighbor);
                            states[neighbor] = State::Cluster(cluster_id);
                        }
                        State::Noise => {
                            states[neighbor] = State::Cluster(cluster_id);
                        }
                        State::Cluster(_) => {}
                    }
                }
            }
        }
    }
    finish(states, next_cluster)
}

/// The horizontal-partition reference semantics (Algorithms 3 & 4, one
/// party's view): density counts include the `external` points, but cluster
/// expansion traverses only `own` points — the querying party never learns
/// *which* external points matched, so it cannot chain through them.
///
/// This deliberately differs from [`dbscan`] on the union whenever two local
/// groups are bridged only by external points; experiment E4 quantifies the
/// gap.
pub fn dbscan_with_external_density(
    own: &[Point],
    external: &[Point],
    params: DbscanParams,
) -> Clustering {
    let index = LinearIndex::new(own, params.eps_sq);
    // Algorithm 4: seedsA from own data, seedsB.size from the peer.
    dbscan_with_core_test(own, &index, |i, own_count| {
        let external_count = external
            .iter()
            .filter(|p| dist_sq(p, &own[i]) <= params.eps_sq)
            .count();
        own_count + external_count >= params.min_pts
    })
}

fn finish(states: Vec<State>, num_clusters: usize) -> Clustering {
    let labels = states
        .into_iter()
        .map(|s| match s {
            State::Unclassified => unreachable!("every point is classified"),
            State::Noise => Label::Noise,
            State::Cluster(id) => Label::Cluster(id),
        })
        .collect();
    Clustering {
        labels,
        num_clusters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[&[i64]]) -> Vec<Point> {
        coords.iter().map(|c| Point::from(*c)).collect()
    }

    fn params(eps_sq: u64, min_pts: usize) -> DbscanParams {
        DbscanParams { eps_sq, min_pts }
    }

    #[test]
    fn empty_input() {
        let c = dbscan(&[], params(4, 2));
        assert_eq!(c.num_clusters, 0);
        assert!(c.labels.is_empty());
        assert_eq!(c.noise_count(), 0);
    }

    #[test]
    fn single_point_is_noise_unless_minpts_one() {
        let points = pts(&[&[0, 0]]);
        let c = dbscan(&points, params(4, 2));
        assert_eq!(c.labels, vec![Label::Noise]);
        let c = dbscan(&points, params(4, 1));
        assert_eq!(c.labels, vec![Label::Cluster(0)]);
        assert_eq!(c.num_clusters, 1);
    }

    #[test]
    fn two_separated_groups() {
        // Group A around origin, group B far away, one stray point.
        let points = pts(&[
            &[0, 0],
            &[1, 0],
            &[0, 1],
            &[100, 100],
            &[101, 100],
            &[100, 101],
            &[50, -50],
        ]);
        let c = dbscan(&points, params(2, 3));
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.labels[0], c.labels[1]);
        assert_eq!(c.labels[1], c.labels[2]);
        assert_eq!(c.labels[3], c.labels[4]);
        assert_eq!(c.labels[4], c.labels[5]);
        assert_ne!(c.labels[0], c.labels[3]);
        assert_eq!(c.labels[6], Label::Noise);
        assert_eq!(c.cluster_sizes(), vec![3, 3]);
    }

    #[test]
    fn chain_is_density_reachable() {
        // A chain of points, each within eps of the next: one cluster via
        // transitive density-reachability (Definition 1).
        let points = pts(&[&[0], &[2], &[4], &[6], &[8]]);
        let c = dbscan(&points, params(4, 2));
        assert_eq!(c.num_clusters, 1);
        assert!(c.labels.iter().all(|l| *l == Label::Cluster(0)));
    }

    #[test]
    fn shared_border_point_follows_algorithm6_seed_relabeling() {
        // Two dense 4-point squares share a border point X = (3, 0): X has
        // only 3 neighbors (itself, (1,0), (5,0)) so it is never core.
        // Cluster 0's expansion claims X first, but Algorithm 6 step 6
        // (`changeClusterIds(seeds, ClusterId)`) relabels seeds
        // *unconditionally*, so when (5,0) starts cluster 1 with X in its
        // seed set, X moves to cluster 1. This is the faithful Ester et al.
        // behavior the paper copies; the private protocols must match it.
        let points = pts(&[
            &[0, 0],
            &[1, 0],
            &[0, 1],
            &[1, 1], // square A: all core (4 neighbors each)
            &[3, 0], // X: border of both
            &[5, 0],
            &[6, 0],
            &[5, 1],
            &[6, 1], // square B
        ]);
        let c = dbscan(&points, params(4, 4));
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.labels[4], Label::Cluster(1), "seed relabeling wins");
        assert_eq!(c.labels[0], Label::Cluster(0));
        assert_eq!(c.labels[5], Label::Cluster(1));
    }

    #[test]
    fn noise_upgraded_to_border() {
        // Point 0 is processed first, fails the core test, becomes NOISE;
        // later cluster expansion reclassifies it as a border point.
        let points = pts(&[
            &[-2], // border-only: neighbors = {0, 1} => 2 < 3, not core
            &[0],
            &[1],
            &[2],
        ]);
        let c = dbscan(&points, params(4, 3));
        assert_eq!(c.num_clusters, 1);
        assert_eq!(c.labels[0], Label::Cluster(0), "noise became border");
    }

    #[test]
    fn cluster_surrounded_by_ring() {
        // DBSCAN's signature: an inner blob fully enclosed by a ring forms
        // two clusters (k-means famously cannot do this).
        let mut coords: Vec<Vec<i64>> = vec![];
        for dx in -1..=1i64 {
            for dy in -1..=1i64 {
                coords.push(vec![dx, dy]); // 3x3 inner blob
            }
        }
        let ring_r = 10.0;
        for step in 0..24 {
            let angle = step as f64 * std::f64::consts::TAU / 24.0;
            coords.push(vec![
                (ring_r * angle.cos()).round() as i64,
                (ring_r * angle.sin()).round() as i64,
            ]);
        }
        let points: Vec<Point> = coords.into_iter().map(Point::new).collect();
        let c = dbscan(&points, params(9, 3));
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.noise_count(), 0);
        // Inner blob all one cluster, ring all the other.
        assert!(c.labels[..9].iter().all(|l| *l == c.labels[0]));
        assert!(c.labels[9..].iter().all(|l| *l == c.labels[9]));
        assert_ne!(c.labels[0], c.labels[9]);
    }

    #[test]
    fn all_points_identical() {
        let points = pts(&[&[5, 5], &[5, 5], &[5, 5], &[5, 5]]);
        let c = dbscan(&points, params(0, 4));
        assert_eq!(c.num_clusters, 1);
        assert_eq!(c.noise_count(), 0);
    }

    #[test]
    fn grid_and_linear_paths_agree() {
        // 100 points forces the grid path; re-run with explicit linear.
        let points: Vec<Point> = (0..100)
            .map(|i| Point::new(vec![(i % 10) * 3, (i / 10) * 3]))
            .collect();
        let p = params(9, 4);
        let via_grid = dbscan(&points, p);
        let linear = LinearIndex::new(&points, p.eps_sq);
        let via_linear = dbscan_with_index(&points, p, &linear);
        assert_eq!(via_grid, via_linear);
    }

    #[test]
    fn graph_expansion_matches_the_index_path_query_for_query() {
        // Lattice, a ring around a blob, and degenerate sizes: the graph
        // form must visit the same queries in the same order with the same
        // neighbourhood sizes, and so produce the same labels.
        let lattice: Vec<Point> = (0..100)
            .map(|i| Point::new(vec![(i % 10) * 3, (i / 10) * 3]))
            .collect();
        let ring = pts(&[
            &[0, 0],
            &[1, 0],
            &[0, 1],
            &[9, 0],
            &[0, 9],
            &[-9, 0],
            &[1, 1],
        ]);
        for (points, p) in [
            (lattice, params(9, 4)),
            (ring.clone(), params(2, 3)),
            (ring, params(81, 1)),
            (pts(&[&[5]]), params(4, 1)),
            (Vec::new(), params(4, 2)),
        ] {
            let n = points.len();
            let mut edges = Vec::new();
            for x in 0..n {
                for y in x + 1..n {
                    if dist_sq(&points[x], &points[y]) <= p.eps_sq {
                        edges.push((x as u32, y as u32));
                    }
                }
            }
            let graph = NeighborGraph::from_edges(n, &edges);
            assert_eq!(graph.len(), n);
            assert_eq!(graph.is_empty(), n == 0);
            let index = LinearIndex::new(&points, p.eps_sq);
            let mut queries = Vec::new();
            let via_graph = dbscan_over_graph(&graph, p, |x, count| queries.push((x, count)));
            assert_eq!(via_graph, dbscan_with_index(&points, p, &index));
            for &(x, count) in &queries {
                let want = index.region_query(&points[x]);
                assert_eq!(count, want.len(), "query {x}");
                let mut row: Vec<usize> = graph.neighbors(x).iter().map(|&y| y as usize).collect();
                row.push(x);
                row.sort_unstable();
                assert_eq!(row, want, "row {x} is sorted and complete");
                assert!(graph.neighbors(x).windows(2).all(|w| w[0] < w[1]));
            }
            assert!(queries.len() >= n, "every point is queried at least once");
        }
    }

    #[test]
    fn external_density_enables_core_status() {
        // Alone, each of Alice's points is noise (min_pts 2, no local
        // neighbor); Bob's nearby points make them core.
        let alice = pts(&[&[0], &[10]]);
        let bob = pts(&[&[1], &[11]]);
        let solo = dbscan(&alice, params(4, 2));
        assert_eq!(solo.noise_count(), 2);
        let with_bob = dbscan_with_external_density(&alice, &bob, params(4, 2));
        assert_eq!(with_bob.noise_count(), 0);
        assert_eq!(with_bob.num_clusters, 2, "still cannot chain through Bob");
    }

    #[test]
    fn external_bridge_does_not_merge_local_clusters() {
        // Centralized DBSCAN on the union would form ONE cluster via Bob's
        // bridge point; the horizontal semantics keep Alice's groups apart.
        let alice = pts(&[&[0], &[1], &[5], &[6]]);
        let bob = pts(&[&[3]]);
        let p = params(4, 2);
        let horizontal = dbscan_with_external_density(&alice, &bob, p);
        assert_eq!(horizontal.num_clusters, 2);

        let mut union = alice.clone();
        union.extend(bob);
        let centralized = dbscan(&union, p);
        assert_eq!(centralized.num_clusters, 1);
    }

    #[test]
    fn core_test_is_asked_again_for_a_noise_point_a_later_cluster_seeds() {
        // Point 0 fails its test first (noise); the cluster point 1 starts
        // has it among its seeds, relabels it and tests it a second time.
        // The protocol drivers rely on this being the *only* kind of repeat
        // and answer it from their resolved table.
        let points = pts(&[&[-2], &[0], &[1], &[2]]);
        let p = params(4, 3);
        let index = LinearIndex::new(&points, p.eps_sq);
        let mut asked = Vec::new();
        let c = dbscan_with_core_test(&points, &index, |i, own_count| {
            asked.push(i);
            own_count >= p.min_pts
        });
        assert_eq!(c, dbscan_with_index(&points, p, &index));
        assert_eq!(c.labels[0], Label::Cluster(0), "noise became border");
        assert_eq!(asked, [0, 1, 0, 2, 3]);
    }

    #[test]
    fn external_density_with_no_external_matches_plain() {
        let points = pts(&[&[0, 0], &[1, 0], &[0, 1], &[50, 50]]);
        let p = params(2, 3);
        let a = dbscan(&points, p);
        let b = dbscan_with_external_density(&points, &[], p);
        assert_eq!(a, b);
    }

    #[test]
    fn labels_parallel_to_input() {
        let points = pts(&[&[0], &[100], &[1]]);
        let c = dbscan(&points, params(4, 2));
        assert_eq!(c.labels.len(), 3);
        assert_eq!(c.labels[0], c.labels[2]);
        assert_eq!(c.labels[1], Label::Noise);
    }

    #[test]
    fn min_pts_one_has_no_noise() {
        let points = pts(&[&[0], &[50], &[100]]);
        let c = dbscan(&points, params(4, 1));
        assert_eq!(c.noise_count(), 0);
        assert_eq!(c.num_clusters, 3);
    }

    #[test]
    fn label_cluster_accessor() {
        assert_eq!(Label::Noise.cluster(), None);
        assert_eq!(Label::Cluster(3).cluster(), Some(3));
    }
}
