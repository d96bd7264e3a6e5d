//! Property-based end-to-end tests: random small datasets through the full
//! protocol stack must always reproduce the plaintext reference semantics.
//!
//! Key sizes are tiny (protocol correctness is key-size independent) and
//! instance sizes small — each case still runs the complete Paillier +
//! comparison pipeline on two threads.

mod common;

use common::{
    run_arbitrary_pair, run_enhanced_pair, run_horizontal_pair, run_multiparty, run_vertical_pair,
};
use ppdbscan::config::ProtocolConfig;
use ppdbscan::{ArbitraryPartition, PartyOutput, VerticalPartition};
use ppds_dbscan::pruning::{band_width, bands_intersect, coarse_cell};
use ppds_dbscan::{dbscan, dbscan_with_external_density, DbscanParams, Point, Pruning};
use ppds_smc::BackendKind;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const BOUND: i64 = 6;

fn small_cfg(eps_sq: u64, min_pts: usize) -> ProtocolConfig {
    let mut cfg = ProtocolConfig::new(DbscanParams { eps_sq, min_pts }, BOUND);
    cfg.key_bits = 64; // fast keygen; correctness is size-independent
    cfg.mask_bits = 6;
    cfg
}

/// `{exhaustive, grid} × {unbatched, batched} × {paillier, sharing}` over
/// `base` — every framing a mode's resolve phase runs in.
fn knob_matrix(base: ProtocolConfig) -> Vec<(String, ProtocolConfig)> {
    let mut out = Vec::new();
    for pruning in [Pruning::Exhaustive, Pruning::Grid { coarseness: 1 }] {
        for batching in [false, true] {
            for backend in [BackendKind::Paillier, BackendKind::Sharing] {
                let cfg = base
                    .with_pruning(pruning)
                    .with_batching(batching)
                    .with_backend(backend);
                let knobs = format!("{}/batching={batching}/{}", pruning.name(), backend.name());
                out.push((knobs, cfg));
            }
        }
    }
    out
}

/// The unordered record pairs `cfg`'s candidate generator admits — what
/// the lockstep modes must compare exactly once each: all `n(n−1)/2` when
/// exhaustive, the band-adjacent ones under grid pruning.
fn candidate_pairs(records: &[Point], cfg: &ProtocolConfig) -> u64 {
    let n = records.len() as u64;
    let Pruning::Grid { coarseness } = cfg.pruning else {
        return n * n.saturating_sub(1) / 2;
    };
    let width = band_width(cfg.params.eps_sq, coarseness);
    let cells: Vec<Vec<i64>> = records
        .iter()
        .map(|p| coarse_cell(p.coords(), width))
        .collect();
    let mut pairs = 0;
    for (x, a) in cells.iter().enumerate() {
        pairs += cells[x + 1..]
            .iter()
            .filter(|b| bands_intersect(a, b))
            .count() as u64;
    }
    pairs
}

/// The (query, candidate) pairs `cfg`'s candidate generator admits between
/// two point-holding parties, one direction: every cross pair when
/// exhaustive, the band-adjacent ones under grid pruning (the relation is
/// symmetric, so both directions compare the same number).
fn cross_pairs(alice: &[Point], bob: &[Point], cfg: &ProtocolConfig) -> u64 {
    let Pruning::Grid { coarseness } = cfg.pruning else {
        return (alice.len() * bob.len()) as u64;
    };
    let width = band_width(cfg.params.eps_sq, coarseness);
    let cells = |points: &[Point]| -> Vec<Vec<i64>> {
        points
            .iter()
            .map(|p| coarse_cell(p.coords(), width))
            .collect()
    };
    let (a_cells, b_cells) = (cells(alice), cells(bob));
    a_cells
        .iter()
        .map(|a| b_cells.iter().filter(|b| bands_intersect(a, b)).count() as u64)
        .sum()
}

/// One point-holding two-party run against the plaintext reference: both
/// parties' labels, and the ledger — every admitted cross pair compared
/// exactly once per direction, however often DBSCAN re-tests a point.
fn assert_matches_external_density(
    name: &str,
    cfg: &ProtocolConfig,
    alice: &[Point],
    bob: &[Point],
    (a, b): &(PartyOutput, PartyOutput),
    ledger_is_pairs: bool,
) {
    assert_eq!(
        a.clustering,
        dbscan_with_external_density(alice, bob, cfg.params),
        "{name}: alice"
    );
    assert_eq!(
        b.clustering,
        dbscan_with_external_density(bob, alice, cfg.params),
        "{name}: bob"
    );
    assert_eq!(a.yao, b.yao, "{name}: both ledgers hold both directions");
    if ledger_is_pairs {
        assert_eq!(
            a.yao.comparisons,
            2 * cross_pairs(alice, bob, cfg),
            "{name}: comparisons"
        );
    }
}

/// Every party of a mesh run against the plaintext reference with all the
/// other parties' points as the external set, and one neighbour count per
/// peer per own point in its log.
fn assert_mesh_matches_external_density(
    name: &str,
    cfg: &ProtocolConfig,
    parties: &[Vec<Point>],
    outs: &[PartyOutput],
) {
    for (i, out) in outs.iter().enumerate() {
        let others: Vec<Point> = parties
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .flat_map(|(_, points)| points.iter().cloned())
            .collect();
        assert_eq!(
            out.clustering,
            dbscan_with_external_density(&parties[i], &others, cfg.params),
            "{name}: party {i}"
        );
        assert_eq!(
            out.leakage.count_kind("neighbor_count"),
            (parties.len() - 1) * parties[i].len(),
            "{name}: party {i} asks each peer once per own point"
        );
    }
}

/// `VerticalPartition::split` at attribute 1, extended to zero records.
fn vertical_split(records: &[Point]) -> VerticalPartition {
    if records.is_empty() {
        return VerticalPartition {
            alice: Vec::new(),
            bob: Vec::new(),
        };
    }
    VerticalPartition::split(records, 1)
}

fn points_strategy(min: usize, max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec((-BOUND..=BOUND, -BOUND..=BOUND), min..=max).prop_map(|coords| {
        coords
            .into_iter()
            .map(|(x, y)| Point::new(vec![x, y]))
            .collect()
    })
}

proptest! {
    // Each case spins up threads + keygen, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn horizontal_always_matches_reference(
        alice in points_strategy(0, 6),
        bob in points_strategy(0, 6),
        eps_sq in 1u64..30,
        min_pts in 1usize..5,
        seed in any::<u64>(),
    ) {
        for (knobs, cfg) in knob_matrix(small_cfg(eps_sq, min_pts)) {
            let outs = run_horizontal_pair(
                &cfg,
                &alice,
                &bob,
                StdRng::seed_from_u64(seed),
                StdRng::seed_from_u64(seed.wrapping_add(1)),
            )
            .unwrap();
            assert_matches_external_density(&knobs, &cfg, &alice, &bob, &outs, true);
            prop_assert_eq!(outs.0.leakage.count_kind("neighbor_count"), alice.len());
            prop_assert_eq!(outs.1.leakage.count_kind("neighbor_count"), bob.len());
        }
    }

    #[test]
    fn enhanced_always_equals_basic(
        alice in points_strategy(0, 5),
        bob in points_strategy(0, 5),
        eps_sq in 1u64..30,
        min_pts in 1usize..5,
        seed in any::<u64>(),
    ) {
        for (knobs, cfg) in knob_matrix(small_cfg(eps_sq, min_pts)) {
            let outs = run_enhanced_pair(
                &cfg,
                &alice,
                &bob,
                StdRng::seed_from_u64(seed),
                StdRng::seed_from_u64(seed.wrapping_add(1)),
            )
            .unwrap();
            assert_matches_external_density(&knobs, &cfg, &alice, &bob, &outs, false);
            prop_assert_eq!(outs.0.leakage.count_kind("core_point_bit"), alice.len());
            prop_assert_eq!(outs.1.leakage.count_kind("core_point_bit"), bob.len());
        }
    }

    #[test]
    fn multiparty_always_matches_reference(
        parties in proptest::collection::vec(points_strategy(0, 4), 3..=3),
        eps_sq in 1u64..30,
        min_pts in 1usize..5,
        seed in any::<u64>(),
    ) {
        for (knobs, cfg) in knob_matrix(small_cfg(eps_sq, min_pts)) {
            let outs = run_multiparty(&cfg, &parties, seed).unwrap();
            assert_mesh_matches_external_density(&knobs, &cfg, &parties, &outs);
        }
    }

    #[test]
    fn vertical_always_matches_plaintext(
        records in points_strategy(0, 7),
        eps_sq in 1u64..30,
        min_pts in 1usize..5,
        seed in any::<u64>(),
    ) {
        let partition = vertical_split(&records);
        for (knobs, cfg) in knob_matrix(small_cfg(eps_sq, min_pts)) {
            let (a, b) = run_vertical_pair(
                &cfg,
                &partition,
                StdRng::seed_from_u64(seed),
                StdRng::seed_from_u64(seed.wrapping_add(1)),
            )
            .unwrap();
            let reference = dbscan(&records, cfg.params);
            prop_assert_eq!(&a.clustering, &reference, "{}", knobs);
            prop_assert_eq!(&b.clustering, &reference, "{}", knobs);
            prop_assert_eq!(a.yao.comparisons, candidate_pairs(&records, &cfg), "{}", knobs);
            prop_assert_eq!(a.yao, b.yao, "{}", knobs);
        }
    }

    #[test]
    fn arbitrary_always_matches_plaintext(
        records in points_strategy(0, 6),
        eps_sq in 1u64..30,
        min_pts in 1usize..5,
        seed in any::<u64>(),
    ) {
        let partition = ArbitraryPartition::random(&mut StdRng::seed_from_u64(seed), &records);
        for (knobs, cfg) in knob_matrix(small_cfg(eps_sq, min_pts)) {
            let (a, b) = run_arbitrary_pair(
                &cfg,
                &partition,
                StdRng::seed_from_u64(seed.wrapping_add(2)),
                StdRng::seed_from_u64(seed.wrapping_add(3)),
            )
            .unwrap();
            let reference = dbscan(&records, cfg.params);
            prop_assert_eq!(&a.clustering, &reference, "{}", knobs);
            prop_assert_eq!(&b.clustering, &reference, "{}", knobs);
            prop_assert_eq!(a.yao.comparisons, candidate_pairs(&records, &cfg), "{}", knobs);
            prop_assert_eq!(a.yao, b.yao, "{}", knobs);
        }
    }
}

/// Sizes the generators above reach only by luck. The lockstep modes
/// resolve candidate pairs in chunks of 1,024 (`ppdbscan`'s `PAIR_CHUNK`):
/// 80 records in a 13 × 13 box give 3,160 exhaustive pairs (three full
/// chunks and a tail) and, at `Eps² = 8`, more than one chunk of grid
/// candidates that is no multiple of the chunk length either — so every
/// framing crosses chunk boundaries and ends on a partial chunk. 0, 1 and
/// 2 records are the empty stream, a lone record and a single pair.
#[test]
fn lockstep_modes_match_plaintext_at_degenerate_and_multi_chunk_sizes() {
    const PAIR_CHUNK: u64 = 1024;
    let mut r = StdRng::seed_from_u64(0xC4_0C);
    let all: Vec<Point> = (0..80)
        .map(|_| {
            Point::new(vec![
                r.random_range(-BOUND..=BOUND),
                r.random_range(-BOUND..=BOUND),
            ])
        })
        .collect();
    for n in [0usize, 1, 2, 80] {
        let records = &all[..n];
        let vertical = vertical_split(records);
        let arbitrary = ArbitraryPartition::random(&mut r, records);
        for (knobs, cfg) in knob_matrix(small_cfg(8, 2)) {
            let reference = dbscan(records, cfg.params);
            let pairs = candidate_pairs(records, &cfg);
            assert!(
                n < 80 || (pairs > PAIR_CHUNK && !pairs.is_multiple_of(PAIR_CHUNK)),
                "{knobs}: {pairs} pairs must span chunks and leave a tail"
            );
            let (va, vb) = run_vertical_pair(
                &cfg,
                &vertical,
                StdRng::seed_from_u64(1),
                StdRng::seed_from_u64(2),
            )
            .unwrap();
            let (aa, ab) = run_arbitrary_pair(
                &cfg,
                &arbitrary,
                StdRng::seed_from_u64(3),
                StdRng::seed_from_u64(4),
            )
            .unwrap();
            for (mode, out) in [
                ("vertical/alice", &va),
                ("vertical/bob", &vb),
                ("arbitrary/alice", &aa),
                ("arbitrary/bob", &ab),
            ] {
                assert_eq!(out.clustering, reference, "{mode}/n={n}/{knobs}");
                assert_eq!(out.yao.comparisons, pairs, "{mode}/n={n}/{knobs}");
            }
        }
    }
}

/// The point-holding modes pack whole queries into resolve chunks of at
/// most 1,024 (query, candidate) pairs. These shapes sit on every edge of
/// that rule: `n_a · n_b` one below, at and one above a chunk; a peer so
/// large that a single query overflows a chunk by itself; parties so far
/// apart that grid pruning leaves no candidate at all (the all-zero chunk
/// neither side may spend a frame on); an empty peer; and 0 or 1 points.
#[test]
fn point_holding_modes_match_plaintext_at_chunk_edges() {
    const PAIR_CHUNK: usize = 1024;
    let mut r = StdRng::seed_from_u64(0x4D9);
    let mut cloud = |n: usize, shift: i64| -> Vec<Point> {
        (0..n)
            .map(|_| {
                Point::new(vec![
                    r.random_range(-BOUND..=BOUND) + shift,
                    r.random_range(-BOUND..=BOUND),
                ])
            })
            .collect()
    };
    let shapes: Vec<(&str, Vec<Point>, Vec<Point>)> = vec![
        ("31x33", cloud(31, 0), cloud(33, 0)),
        ("32x32", cloud(32, 0), cloud(32, 0)),
        ("25x41", cloud(25, 0), cloud(41, 0)),
        ("2x1030", cloud(2, 0), cloud(1030, 0)),
        ("far apart", cloud(5, -40), cloud(4, 40)),
        ("empty peer", cloud(4, 0), Vec::new()),
        ("0x0", Vec::new(), Vec::new()),
        ("1x1", cloud(1, 0), cloud(1, 0)),
        ("1x0", cloud(1, 0), Vec::new()),
    ];
    assert_eq!(shapes[0].1.len() * shapes[0].2.len(), PAIR_CHUNK - 1);
    assert_eq!(shapes[1].1.len() * shapes[1].2.len(), PAIR_CHUNK);
    assert_eq!(shapes[2].1.len() * shapes[2].2.len(), PAIR_CHUNK + 1);
    assert!(shapes[3].2.len() > PAIR_CHUNK);
    let mut base = small_cfg(8, 3);
    base.coord_bound = 40 + BOUND;
    let seeds = || (StdRng::seed_from_u64(7), StdRng::seed_from_u64(8));
    for (shape, alice, bob) in &shapes {
        for (knobs, cfg) in knob_matrix(base) {
            let name = format!("{shape}/{knobs}");
            // A thousand Paillier ping-pongs take seconds in a debug build,
            // and how pairs fall into chunks does not depend on the backend:
            // the sharing runs cover the unbatched framing of the big shapes.
            let big = alice.len() * bob.len() >= PAIR_CHUNK - 1;
            if big && cfg.backend == BackendKind::Paillier && !cfg.batching {
                continue;
            }
            let (sa, sb) = seeds();
            let outs = run_horizontal_pair(&cfg, alice, bob, sa, sb).unwrap();
            assert_matches_external_density(&name, &cfg, alice, bob, &outs, true);
            if *shape == "far apart" && cfg.pruning.is_grid() {
                // A session of no points spends the handshake's frames only.
                let (sa, sb) = seeds();
                let (idle, _) = run_horizontal_pair(&cfg, &[], &[], sa, sb).unwrap();
                assert_eq!(outs.0.yao.comparisons, 0, "{name}: nothing to compare");
                assert_eq!(
                    outs.0.traffic.total_rounds(),
                    idle.traffic.total_rounds() + 4,
                    "{name}: a cell frame and a count frame each way, no chunk"
                );
            }
            // The enhanced mode shares the driver and the cell exchange but
            // asks one test per exchange: the small shapes are its edges.
            if alice.len() * bob.len() < PAIR_CHUNK {
                let (sa, sb) = seeds();
                let outs = run_enhanced_pair(&cfg, alice, bob, sa, sb).unwrap();
                assert_matches_external_density(&name, &cfg, alice, bob, &outs, false);
            }
        }
    }
    // K = 3, every pairwise channel on an edge: 32 × 33 pairs are a full
    // chunk and a tail when exhaustive and no candidate at all under the
    // grid (the third party sits far away), and the second party is empty.
    let parties = vec![cloud(32, 0), Vec::new(), cloud(33, 40)];
    for (knobs, cfg) in knob_matrix(base) {
        let outs = run_multiparty(&cfg, &parties, 11).unwrap();
        assert_mesh_matches_external_density(&knobs, &cfg, &parties, &outs);
    }
}
