//! Property-based end-to-end tests: random small datasets through the full
//! protocol stack must always reproduce the plaintext reference semantics.
//!
//! Key sizes are tiny (protocol correctness is key-size independent) and
//! instance sizes small — each case still runs the complete Paillier +
//! comparison pipeline on two threads.

mod common;

use common::{run_arbitrary_pair, run_enhanced_pair, run_horizontal_pair, run_vertical_pair};
use ppdbscan::config::ProtocolConfig;
use ppdbscan::{ArbitraryPartition, VerticalPartition};
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
/// `base` — every framing the lockstep modes (vertical, arbitrary) run in.
fn lockstep_matrix(base: ProtocolConfig) -> Vec<(String, ProtocolConfig)> {
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
        alice in points_strategy(1, 6),
        bob in points_strategy(1, 6),
        eps_sq in 1u64..30,
        min_pts in 1usize..5,
        seed in any::<u64>(),
    ) {
        let cfg = small_cfg(eps_sq, min_pts);
        let (a, b) = run_horizontal_pair(
            &cfg,
            &alice,
            &bob,
            StdRng::seed_from_u64(seed),
            StdRng::seed_from_u64(seed.wrapping_add(1)),
        )
        .unwrap();
        prop_assert_eq!(
            a.clustering,
            dbscan_with_external_density(&alice, &bob, cfg.params)
        );
        prop_assert_eq!(
            b.clustering,
            dbscan_with_external_density(&bob, &alice, cfg.params)
        );
    }

    #[test]
    fn enhanced_always_equals_basic(
        alice in points_strategy(1, 5),
        bob in points_strategy(1, 5),
        eps_sq in 1u64..30,
        min_pts in 1usize..5,
        seed in any::<u64>(),
    ) {
        let cfg = small_cfg(eps_sq, min_pts);
        let (enh_a, enh_b) = run_enhanced_pair(
            &cfg,
            &alice,
            &bob,
            StdRng::seed_from_u64(seed),
            StdRng::seed_from_u64(seed.wrapping_add(1)),
        )
        .unwrap();
        prop_assert_eq!(
            enh_a.clustering,
            dbscan_with_external_density(&alice, &bob, cfg.params)
        );
        prop_assert_eq!(
            enh_b.clustering,
            dbscan_with_external_density(&bob, &alice, cfg.params)
        );
    }

    #[test]
    fn vertical_always_matches_plaintext(
        records in points_strategy(0, 7),
        eps_sq in 1u64..30,
        min_pts in 1usize..5,
        seed in any::<u64>(),
    ) {
        let partition = vertical_split(&records);
        for (knobs, cfg) in lockstep_matrix(small_cfg(eps_sq, min_pts)) {
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
        for (knobs, cfg) in lockstep_matrix(small_cfg(eps_sq, min_pts)) {
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
        for (knobs, cfg) in lockstep_matrix(small_cfg(8, 2)) {
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
