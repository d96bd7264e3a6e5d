//! Leakage-profile conformance: each protocol's executions must disclose
//! exactly the event classes its theorem permits — nothing more.
//!
//! * Theorem 9 (basic horizontal): querier learns one neighbor **count**
//!   per query; responder learns unlinkable own-point match flags.
//! * Theorem 10 (vertical): both parties learn each queried record's
//!   neighborhood (the protocol output itself).
//! * Theorem 11 (enhanced): querier learns one core-point **bit** per
//!   query; counts never appear anywhere.

mod common;

use common::{rng, run_enhanced_pair, run_horizontal_pair, run_vertical_pair};
use ppdbscan::config::ProtocolConfig;
use ppdbscan::VerticalPartition;
use ppds_dbscan::datagen::{split_alternating, standard_blobs};
use ppds_dbscan::{DbscanParams, Point, Quantizer};
use ppds_smc::LeakageEvent;

fn cfg(eps_sq: u64, min_pts: usize, bound: i64) -> ProtocolConfig {
    ProtocolConfig::new(DbscanParams { eps_sq, min_pts }, bound)
}

fn test_points() -> (Vec<Point>, Vec<Point>) {
    let quantizer = Quantizer::new(1.0, 40);
    let (points, _) = standard_blobs(&mut rng(1), 8, 2, 2, quantizer);
    split_alternating(&points)
}

#[test]
fn theorem9_basic_horizontal_discloses_counts_only() {
    let (alice, bob) = test_points();
    let c = cfg(49, 3, 40);
    let (a, b) = run_horizontal_pair(&c, &alice, &bob, rng(2), rng(3)).unwrap();

    for out in [&a, &b] {
        for event in out.leakage.events() {
            match event {
                LeakageEvent::NeighborCount { .. } | LeakageEvent::OwnPointMatched { .. } => {}
                other => panic!("Theorem 9 forbids event {other:?}"),
            }
        }
        // Every own point issues exactly one query, and each query logs
        // exactly one count.
        assert_eq!(
            out.leakage.count_kind("neighbor_count"),
            out.clustering.labels.len()
        );
    }
}

/// Alice's point 0 fails its core test first (noise) and is then a seed of
/// the cluster point 1 starts, which relabels it and tests it again. The
/// per-query protocol asked the peer a second time; the resolved one must
/// not — on the wire, every own point is one query, whatever DBSCAN does
/// with the answers afterwards.
#[test]
fn an_absorbed_noise_point_is_queried_once_and_retested_for_free() {
    use ppds_dbscan::{dbscan_with_external_density, dist_sq, Label, Pruning};
    let pts = |coords: &[[i64; 2]]| -> Vec<Point> {
        coords.iter().map(|c| Point::new(c.to_vec())).collect()
    };
    let alice = pts(&[[-2, 0], [0, 0], [1, 0], [2, 0], [9, 9]]);
    let bob = pts(&[[0, 1], [9, 8], [-9, -9]]);
    // Same sizes, nobody near anybody: no cluster, so no re-test either.
    let scattered = pts(&[[-9, 0], [-4, 0], [1, 0], [6, 0], [9, 9]]);
    for pruning in [Pruning::Exhaustive, Pruning::Grid { coarseness: 1 }] {
        let c = cfg(4, 4, 10).with_batching(true).with_pruning(pruning);
        let (a, b) = run_horizontal_pair(&c, &alice, &bob, rng(40), rng(41)).unwrap();

        // (a) Labels are the plaintext reference's, absorbed point included.
        let reference = dbscan_with_external_density(&alice, &bob, c.params);
        assert_eq!(a.clustering, reference);
        assert_eq!(
            reference.labels[0],
            Label::Cluster(0),
            "noise became border"
        );
        assert_eq!(reference.labels[4], Label::Noise);

        // One count per own point, in index order.
        let counts: Vec<(String, usize)> = a
            .leakage
            .events()
            .iter()
            .filter_map(|e| match e {
                LeakageEvent::NeighborCount { query, count } => {
                    Some((query.clone(), *count as usize))
                }
                _ => None,
            })
            .collect();
        let queried: Vec<&str> = counts.iter().map(|(query, _)| query.as_str()).collect();
        assert_eq!(queried, ["own#0", "own#1", "own#2", "own#3", "own#4"]);

        // (b) The re-test cost no comparison and no frame: the exhaustive
        // run pays exactly one comparison per cross pair per direction, and
        // the same sizes cost the same frames when nothing is re-tested.
        let (quiet, _) = run_horizontal_pair(&c, &scattered, &bob, rng(40), rng(41)).unwrap();
        if pruning == Pruning::Exhaustive {
            assert_eq!(a.yao.comparisons, 2 * 5 * 3);
            assert_eq!(a.traffic.total_rounds(), quiet.traffic.total_rounds());
        }
        assert_eq!(
            quiet.leakage.count_kind("neighbor_count"),
            a.leakage.count_kind("neighbor_count")
        );

        // (c) Bob served each of Alice's points once. His match flags come
        // in query order, so her counts cut them into per-serve groups —
        // each the plaintext neighbours of that query, in some order.
        if pruning.is_grid() {
            assert_eq!(b.leakage.count_kind("pruning_cell"), alice.len());
            assert_eq!(a.leakage.count_kind("pruning_candidates"), alice.len());
        }
        let mut matched = b.leakage.events().iter().filter_map(|e| match e {
            LeakageEvent::OwnPointMatched { point } => Some(point.clone()),
            _ => None,
        });
        for (query, (_, count)) in alice.iter().zip(&counts) {
            let mut served: Vec<String> = matched.by_ref().take(*count).collect();
            served.sort();
            let geometry: Vec<String> = (0..bob.len())
                .filter(|&j| dist_sq(&bob[j], query) <= c.params.eps_sq)
                .map(|j| format!("own#{j}"))
                .collect();
            assert_eq!(served, geometry, "{pruning:?}: serve of {query:?}");
        }
        // Nothing is left over: the flags Bob's own queries raised sit in
        // Alice's log.
        assert_eq!(matched.next(), None);
    }
}

#[test]
fn theorem9_counts_are_bounded_by_peer_set_size() {
    let (alice, bob) = test_points();
    let c = cfg(49, 3, 40);
    let (a, _) = run_horizontal_pair(&c, &alice, &bob, rng(4), rng(5)).unwrap();
    for event in a.leakage.events() {
        if let LeakageEvent::NeighborCount { count, .. } = event {
            assert!(*count as usize <= bob.len());
        }
    }
}

#[test]
fn theorem10_vertical_discloses_neighborhoods_only() {
    let quantizer = Quantizer::new(1.0, 40);
    let (records, _) = standard_blobs(&mut rng(6), 8, 2, 3, quantizer);
    let partition = VerticalPartition::split(&records, 1);
    let c = cfg(49, 3, 40);
    let (a, b) = run_vertical_pair(&c, &partition, rng(7), rng(8)).unwrap();

    for out in [&a, &b] {
        for event in out.leakage.events() {
            match event {
                LeakageEvent::NeighborCount { .. } => {}
                other => panic!("Theorem 10 forbids event {other:?}"),
            }
        }
    }
    // Lockstep: both parties observe the identical query sequence.
    assert_eq!(a.leakage.len(), b.leakage.len());
}

#[test]
fn theorem11_enhanced_discloses_core_bits_never_counts() {
    let (alice, bob) = test_points();
    let c = cfg(49, 3, 40);
    let (a, b) = run_enhanced_pair(&c, &alice, &bob, rng(9), rng(10)).unwrap();

    for out in [&a, &b] {
        assert_eq!(
            out.leakage.count_kind("neighbor_count"),
            0,
            "the enhanced protocol must never reveal a count"
        );
        for event in out.leakage.events() {
            match event {
                LeakageEvent::CorePointBit { .. }
                | LeakageEvent::ThresholdRank { .. }
                | LeakageEvent::OwnPointMatched { .. } => {}
                other => panic!("Theorem 11 forbids event {other:?}"),
            }
        }
    }
    // Every interactive query produced exactly one core bit for the querier.
    assert!(a.leakage.count_kind("core_point_bit") > 0);
    assert!(b.leakage.count_kind("core_point_bit") > 0);
}

#[test]
fn enhanced_threshold_ranks_match_engaged_queries() {
    // Bob's ThresholdRank events correspond 1:1 to Alice's engaged queries
    // (those not decided locally), and each rank is in [1, |bob points|].
    let (alice, bob) = test_points();
    let c = cfg(49, 3, 40);
    let (_, b) = run_enhanced_pair(&c, &alice, &bob, rng(11), rng(12)).unwrap();
    for event in b.leakage.events() {
        if let LeakageEvent::ThresholdRank { k, .. } = event {
            assert!(*k >= 1 && *k as usize <= alice.len().max(bob.len()));
        }
    }
}

#[test]
fn responder_match_flags_are_unlinkable_count_statistics() {
    // Figure 1's defense, stated as a transcript property: the responder's
    // log records only *which of its own* points matched, never an
    // identifier of the querier's record. All context strings must refer to
    // the responder's own indices.
    let (alice, bob) = test_points();
    let c = cfg(49, 3, 40);
    let (_, b) = run_horizontal_pair(&c, &alice, &bob, rng(13), rng(14)).unwrap();
    for event in b.leakage.events() {
        if let LeakageEvent::OwnPointMatched { point } = event {
            assert!(
                point.starts_with("own#"),
                "match flags must reference the responder's own points, got {point}"
            );
        }
    }
}

#[test]
fn honest_protocols_never_emit_linkable_bits() {
    // The LinkedNeighborBit event class exists only for the Kumar [14]
    // baseline; if any honest protocol ever produced one, the Figure 1
    // defense would be void. Sweep all four honest protocol families.
    let (alice, bob) = test_points();
    let c = cfg(49, 3, 40);
    let (ha, hb) = run_horizontal_pair(&c, &alice, &bob, rng(30), rng(31)).unwrap();
    let (ea, eb) = run_enhanced_pair(&c, &alice, &bob, rng(32), rng(33)).unwrap();
    let quantizer = Quantizer::new(1.0, 40);
    let (records, _) = standard_blobs(&mut rng(34), 6, 2, 2, quantizer);
    let vp = VerticalPartition::split(&records, 1);
    let (va, vb) = run_vertical_pair(&c, &vp, rng(35), rng(36)).unwrap();
    for out in [&ha, &hb, &ea, &eb, &va, &vb] {
        assert_eq!(out.leakage.count_kind("linked_neighbor_bit"), 0);
    }
    // The baseline, by contrast, emits one per (query, responder point).
    let (_, kumar_bob) =
        ppdbscan::kumar::run_kumar_pair(&c, &alice, &bob, rng(37), rng(38)).unwrap();
    assert!(kumar_bob.leakage.count_kind("linked_neighbor_bit") > 0);
}

#[test]
fn noise_only_run_still_leaks_only_permitted_events() {
    // All points isolated: every query returns count 0 / not-core.
    let alice = vec![Point::new(vec![-30, -30]), Point::new(vec![30, 30])];
    let bob = vec![Point::new(vec![-30, 30]), Point::new(vec![30, -30])];
    let c = cfg(4, 3, 40);

    let (a_basic, _) = run_horizontal_pair(&c, &alice, &bob, rng(15), rng(16)).unwrap();
    assert_eq!(a_basic.clustering.noise_count(), 2);
    assert_eq!(a_basic.leakage.count_kind("neighbor_count"), 2);
    assert_eq!(a_basic.leakage.count_kind("own_point_matched"), 0);

    let (a_enh, b_enh) = run_enhanced_pair(&c, &alice, &bob, rng(17), rng(18)).unwrap();
    assert_eq!(a_enh.clustering.noise_count(), 2);
    assert_eq!(a_enh.leakage.count_kind("core_point_bit"), 2);
    assert_eq!(b_enh.leakage.count_kind("own_point_matched"), 0);
}
