//! Randomness-discipline parity: the keyed-substream `ProtocolContext`
//! makes every draw independent of execution order, so
//!
//! 1. for **random** inputs and seeds (not just the fixed vectors of
//!    `batching_parity.rs`), every protocol mode × comparator produces
//!    byte-identical labels, `LeakageLog`s (event *order* included — the
//!    permuted `own#idx` events are the sharp edge), and Yao ledgers
//!    whether round batching is on or off; and
//! 2. in a K-party mesh, each pairwise session's streams are keyed by the
//!    peer's id, so changing one peer's private data never shifts the
//!    randomness (most visibly: the Figure-1-defense permutations) any
//!    *other* pair of parties uses with each other.

mod common;

use common::{
    run_arbitrary_pair, run_enhanced_pair, run_horizontal_pair, run_multiparty, run_vertical_pair,
};
use ppds::ppdbscan::config::ProtocolConfig;
use ppds::ppdbscan::{ArbitraryPartition, PartyOutput, VerticalPartition};
use ppds::ppds_dbscan::{DbscanParams, Point};
use ppds::ppds_smc::compare::Comparator;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Small random lattice scenario: domains stay tiny enough that even the
/// faithful Yao comparator (O(n0) decryptions per comparison) finishes a
/// full clustering run quickly.
fn lattice_points(seed: u64, n: usize, bound: i64) -> Vec<Point> {
    let mut r = rng(seed);
    (0..n)
        .map(|_| {
            Point::new(vec![
                r.random_range(-bound..=bound),
                r.random_range(-bound..=bound),
            ])
        })
        .collect()
}

fn comparator_cfg(comparator: Comparator) -> ProtocolConfig {
    let params = DbscanParams {
        eps_sq: 8,
        min_pts: 2,
    };
    let mut cfg = ProtocolConfig::new(params, 6);
    cfg.comparator = comparator;
    match comparator {
        // Keep the faithful protocol's n0 decryptions and the per-bit DGK
        // decryptions affordable inside a property test: small keys, a
        // tight lattice, and one bit of statistical mask slack.
        Comparator::Yao => {
            cfg.key_bits = 64;
            cfg.mask_bits = 1;
            cfg.coord_bound = 4;
        }
        Comparator::Dgk => cfg.key_bits = ppds_paillier::MIN_DGK_BITS,
        Comparator::Ideal => {}
    }
    cfg
}

/// Labels, leakage (order-sensitive), and modeled Yao cost must be
/// byte-identical across framings; traffic byte totals legitimately differ
/// (framing), so they are not compared here.
fn assert_batching_parity(
    name: &str,
    u: &(PartyOutput, PartyOutput),
    b: &(PartyOutput, PartyOutput),
) {
    for (side, (uo, bo)) in [("alice", (&u.0, &b.0)), ("bob", (&u.1, &b.1))] {
        assert_eq!(uo.clustering, bo.clustering, "{name}/{side}: labels");
        assert_eq!(uo.leakage, bo.leakage, "{name}/{side}: leakage event order");
        assert_eq!(uo.yao, bo.yao, "{name}/{side}: yao ledger");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Random inputs, random session seeds, all three comparators, all
    /// five modes: batching must never change what either party computes
    /// or observes. Under the old threaded-rng discipline this held only
    /// by carefully replicating draw order (and failed for DGK+HDP);
    /// keyed substreams make it hold by construction.
    #[test]
    fn leakage_order_is_batching_invariant_for_random_inputs(
        data_seed in any::<u64>(),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        for comparator in [Comparator::Ideal, Comparator::Yao, Comparator::Dgk] {
            let cfg = comparator_cfg(comparator);
            let batched = cfg.with_batching(true);
            let points = lattice_points(data_seed, 6, cfg.coord_bound.min(5));
            let (alice, bob) = (points[..3].to_vec(), points[3..].to_vec());

            let u = run_horizontal_pair(&cfg, &alice, &bob, rng(seed_a), rng(seed_b)).unwrap();
            let b = run_horizontal_pair(&batched, &alice, &bob, rng(seed_a), rng(seed_b)).unwrap();
            assert_batching_parity(&format!("horizontal/{comparator:?}"), &u, &b);

            let mut enh = cfg;
            enh.params.min_pts = 3; // force joint core tests to engage
            let enh_b = enh.with_batching(true);
            let u = run_enhanced_pair(&enh, &alice, &bob, rng(seed_a), rng(seed_b)).unwrap();
            let b = run_enhanced_pair(&enh_b, &alice, &bob, rng(seed_a), rng(seed_b)).unwrap();
            assert_batching_parity(&format!("enhanced/{comparator:?}"), &u, &b);

            let partition = VerticalPartition::split(&points, 1);
            let u = run_vertical_pair(&cfg, &partition, rng(seed_a), rng(seed_b)).unwrap();
            let b = run_vertical_pair(&batched, &partition, rng(seed_a), rng(seed_b)).unwrap();
            assert_batching_parity(&format!("vertical/{comparator:?}"), &u, &b);

            let arb = ArbitraryPartition::random(&mut rng(data_seed ^ 0xA5A5), &points);
            let u = run_arbitrary_pair(&cfg, &arb, rng(seed_a), rng(seed_b)).unwrap();
            let b = run_arbitrary_pair(&batched, &arb, rng(seed_a), rng(seed_b)).unwrap();
            assert_batching_parity(&format!("arbitrary/{comparator:?}"), &u, &b);

            let parties = vec![
                points[..2].to_vec(),
                points[2..4].to_vec(),
                points[4..].to_vec(),
            ];
            let mu = run_multiparty(&cfg, &parties, seed_a).unwrap();
            let mb = run_multiparty(&batched, &parties, seed_a).unwrap();
            for (i, (uo, bo)) in mu.iter().zip(&mb).enumerate() {
                prop_assert_eq!(&uo.clustering, &bo.clustering, "multiparty/{:?} party {}", comparator, i);
                prop_assert_eq!(&uo.leakage, &bo.leakage, "multiparty/{:?} party {} leakage", comparator, i);
                prop_assert_eq!(&uo.yao, &bo.yao, "multiparty/{:?} party {} yao", comparator, i);
            }
        }
    }
}

/// Mesh sessions derive each exchange's randomness as
/// `ctx.narrow("mesh").at(querier).at(responder)`: keyed by the ordered
/// pair of global ids, not by traffic order. Changing party 0's
/// private data therefore cannot shift a single byte of the randomness the
/// party-1 ↔ party-2 pair uses — in particular the DGK comparator's
/// value-dependent rejection sampling while serving party 0 no longer
/// leaks into the Figure-1-defense permutations party 1 later draws for
/// party 2's queries (under one threaded stream per node, it did).
#[test]
fn mesh_streams_are_keyed_per_peer() {
    let mut cfg = ProtocolConfig::new(
        DbscanParams {
            eps_sq: 4,
            min_pts: 3,
        },
        60,
    );
    cfg.comparator = Comparator::Dgk; // value-dependent draws: the sharp case
    cfg.key_bits = ppds_paillier::MIN_DGK_BITS;

    // Parties 1 and 2: interleaved tight cluster, lots of cross matches
    // (and thus permuted own#idx leakage on both sides). Party 0: same
    // record count in both variants, far from everyone — its *values*
    // change, its counts contribution (zero) does not.
    let party1 = vec![
        Point::new(vec![0, 0]),
        Point::new(vec![1, 1]),
        Point::new(vec![0, 2]),
        Point::new(vec![2, 0]),
    ];
    let party2 = vec![
        Point::new(vec![1, 0]),
        Point::new(vec![0, 1]),
        Point::new(vec![2, 1]),
    ];
    let far_a = vec![Point::new(vec![50, 50]), Point::new(vec![-50, 40])];
    let far_b = vec![Point::new(vec![44, -51]), Point::new(vec![-48, -39])];

    let run = |party0: &[Point]| {
        run_multiparty(
            &cfg,
            &[party0.to_vec(), party1.clone(), party2.clone()],
            977,
        )
        .unwrap()
    };
    let out_a = run(&far_a);
    let out_b = run(&far_b);

    // The pinned pair (parties 1 and 2) must be bit-for-bit unaffected.
    for party in [1usize, 2] {
        assert_eq!(
            out_a[party].clustering, out_b[party].clustering,
            "party {party}: labels shifted by party 0's data"
        );
        assert_eq!(
            out_a[party].leakage, out_b[party].leakage,
            "party {party}: permuted leakage order shifted by party 0's data"
        );
        assert_eq!(
            out_a[party].yao, out_b[party].yao,
            "party {party}: yao ledger"
        );
    }
    // Sanity: the scenario actually exercises permuted own-point leakage.
    assert!(
        out_a[1].leakage.count_kind("own_point_matched") >= 3,
        "test must observe enough matches for a permutation shift to show"
    );
}
