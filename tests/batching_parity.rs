//! Round-batching parity: for every protocol family, the batched pipeline
//! must produce **byte-identical clusterings and identical leakage logs**
//! to the unbatched reference under the same seeds — batching changes the
//! framing, never the protocol — while collapsing wire rounds from
//! `O(pairs)` to `O(1)` per chunk of 1,024 candidate pairs (per enhanced
//! core-point test, which still is an exchange of its own).

mod common;

use common::{
    rng, run_arbitrary_pair, run_enhanced_pair, run_horizontal_pair, run_multiparty,
    run_vertical_pair,
};
use ppds::ppdbscan::config::ProtocolConfig;
use ppds::ppdbscan::session::{Participant, PartyData};
use ppds::ppdbscan::{ArbitraryPartition, CoreError, PartyOutput, VerticalPartition};
use ppds::ppds_dbscan::datagen::{split_alternating, standard_blobs};
use ppds::ppds_dbscan::{dbscan, DbscanParams, Point, Quantizer};
use ppds::ppds_smc::compare::Comparator;
use ppds::ppds_smc::kth::SelectionMethod;

fn blobs(n: usize, seed: u64) -> Vec<Point> {
    let quantizer = Quantizer::new(1.0, 60);
    let (points, _) = standard_blobs(&mut rng(seed), (n / 3).max(1), 3, 2, quantizer);
    points
}

fn base_cfg() -> ProtocolConfig {
    ProtocolConfig::new(
        DbscanParams {
            eps_sq: 81,
            min_pts: 3,
        },
        60,
    )
}

/// Labels, leakage, and modeled Yao cost must be identical; wire rounds
/// must drop by at least `min_round_factor`.
fn assert_parity(
    name: &str,
    unbatched: &(PartyOutput, PartyOutput),
    batched: &(PartyOutput, PartyOutput),
    min_round_factor: f64,
) {
    for (side, (u, b)) in [
        ("alice", (&unbatched.0, &batched.0)),
        ("bob", (&unbatched.1, &batched.1)),
    ] {
        assert_eq!(
            u.clustering, b.clustering,
            "{name}/{side}: labels must be byte-identical"
        );
        assert_eq!(
            u.leakage, b.leakage,
            "{name}/{side}: batching must not widen leakage"
        );
        assert_eq!(
            u.yao, b.yao,
            "{name}/{side}: same comparisons, same modeled Yao cost"
        );
        let (ur, br) = (u.traffic.total_rounds(), b.traffic.total_rounds());
        // `--nocapture` shows what the thresholds below were measured from.
        println!(
            "{name}/{side}: rounds {ur} -> {br} ({:.1}x)",
            ur as f64 / br as f64
        );
        assert!(
            ur as f64 >= min_round_factor * br as f64,
            "{name}/{side}: rounds {ur} unbatched vs {br} batched \
             (wanted >= {min_round_factor}x fewer)"
        );
        // Logical message counts stay comparable; the saving is purely in
        // latency-paying frames.
        assert_eq!(
            u.traffic.total_messages(),
            b.traffic.total_messages(),
            "{name}/{side}: batching preserves logical message counts"
        );
    }
}

/// Acceptance criterion: a vertical run with n ≥ 64 must report two
/// orders of magnitude fewer wire rounds batched, with byte-identical
/// labels and leakage.
#[test]
fn vertical_n64_batched_collapses_rounds_with_identical_output() {
    let records = blobs(66, 4242);
    assert!(records.len() >= 64, "need n >= 64, got {}", records.len());
    let partition = VerticalPartition::split(&records, 1);
    let cfg = base_cfg();
    let unbatched = run_vertical_pair(&cfg, &partition, rng(1), rng(2)).unwrap();
    let batched = run_vertical_pair(&cfg.with_batching(true), &partition, rng(1), rng(2)).unwrap();
    // Measured: 6,439 -> 13 rounds (495x). 66 records are 2,145 unordered
    // pairs; unbatched, each costs 3 Ideal rounds (6,435 + 4 of handshake),
    // batched they ride 3 chunks of <= 1,024 pairs at 3 rounds a chunk.
    assert_parity("vertical", &unbatched, &batched, 400.0);
    // And the clustering is still exactly the centralized reference.
    assert_eq!(batched.0.clustering, dbscan(&records, cfg.params));
}

#[test]
fn horizontal_parity_across_seeds() {
    for seed in [1u64, 2, 3] {
        let (alice, bob) = split_alternating(&blobs(24, 9000 + seed));
        let cfg = base_cfg();
        let unbatched = run_horizontal_pair(&cfg, &alice, &bob, rng(seed), rng(seed + 50)).unwrap();
        let batched = run_horizontal_pair(
            &cfg.with_batching(true),
            &alice,
            &bob,
            rng(seed),
            rng(seed + 50),
        )
        .unwrap();
        // Measured: 1,444 -> 14 rounds (103x). 12 + 12 points are 144 cross
        // pairs a direction; unbatched, each costs 2 multiplication and 3
        // Ideal rounds (1,440 + 4 of handshake), batched each direction is
        // one chunk of 5 rounds.
        assert_parity(
            &format!("horizontal/seed{seed}"),
            &unbatched,
            &batched,
            80.0,
        );
    }
}

#[test]
fn enhanced_parity_both_selection_methods() {
    let (alice, bob) = split_alternating(&blobs(20, 777));
    for (label, selection) in [
        ("repeated-min", SelectionMethod::RepeatedMin),
        ("quickselect", SelectionMethod::QuickSelect),
    ] {
        for seed in [11u64, 12] {
            let mut cfg = base_cfg();
            cfg.params.min_pts = 5; // force joint core tests to engage
            cfg.selection = selection;
            let unbatched =
                run_enhanced_pair(&cfg, &alice, &bob, rng(seed), rng(seed + 50)).unwrap();
            let batched = run_enhanced_pair(
                &cfg.with_batching(true),
                &alice,
                &bob,
                rng(seed),
                rng(seed + 50),
            )
            .unwrap();
            // The enhanced protocol is already phase-batched (one dot-product
            // frame pair per query); batching additionally collapses
            // quickselect partitions, so the round win depends on the
            // selection method — parity of outputs is the invariant here.
            assert_parity(
                &format!("enhanced/{label}/seed{seed}"),
                &unbatched,
                &batched,
                1.0,
            );
            let engaged = unbatched.0.leakage.count_kind("threshold_rank")
                + unbatched.1.leakage.count_kind("threshold_rank")
                > 0;
            assert!(engaged, "{label}/seed{seed}: test must exercise selection");
            if selection == SelectionMethod::QuickSelect {
                assert!(
                    unbatched.0.traffic.total_rounds() > batched.0.traffic.total_rounds(),
                    "{label}: batched quickselect must save rounds"
                );
            }
        }
    }
}

#[test]
fn arbitrary_parity_across_seeds() {
    for seed in [21u64, 22, 23] {
        let records = blobs(15, 3000 + seed);
        let partition = ArbitraryPartition::random(&mut rng(seed), &records);
        let cfg = base_cfg();
        let unbatched = run_arbitrary_pair(&cfg, &partition, rng(seed), rng(seed + 50)).unwrap();
        let batched = run_arbitrary_pair(
            &cfg.with_batching(true),
            &partition,
            rng(seed),
            rng(seed + 50),
        )
        .unwrap();
        // Measured: 459/483/487 -> 9 rounds (51-54x): 105 pairs in one
        // chunk, 2 multiplication + 3 comparison rounds for all of them.
        assert_parity(&format!("arbitrary/seed{seed}"), &unbatched, &batched, 40.0);
    }
}

#[test]
fn multiparty_parity() {
    let all = blobs(18, 55);
    let parties: Vec<Vec<Point>> = (0..3)
        .map(|p| {
            all.iter()
                .enumerate()
                .filter(|(i, _)| i % 3 == p)
                .map(|(_, pt)| pt.clone())
                .collect()
        })
        .collect();
    let cfg = base_cfg();
    let unbatched = run_multiparty(&cfg, &parties, 7).unwrap();
    let batched = run_multiparty(&cfg.with_batching(true), &parties, 7).unwrap();
    for (i, (u, b)) in unbatched.iter().zip(&batched).enumerate() {
        assert_eq!(u.clustering, b.clustering, "party {i} labels");
        assert_eq!(u.leakage, b.leakage, "party {i} leakage");
        assert_eq!(u.yao, b.yao, "party {i} ledger");
        let (ur, br) = (u.traffic.total_rounds(), b.traffic.total_rounds());
        println!(
            "multiparty/party{i}: rounds {ur} -> {br} ({:.1}x)",
            ur as f64 / br as f64
        );
        // Measured: 728 -> 28 rounds (26x). On each of a node's two
        // channels 6 x 6 cross pairs a direction cost 5 rounds a pair
        // unbatched (360 + 4 of handshake) and 5 a direction batched.
        assert!(
            ur as f64 >= 20.0 * br as f64,
            "party {i}: rounds {ur} vs {br}"
        );
        assert_eq!(
            u.traffic.total_messages(),
            b.traffic.total_messages(),
            "party {i}: batching preserves logical message counts"
        );
    }
}

#[test]
fn dgk_backend_parity_on_vertical() {
    // The fully cryptographic comparator must survive batching too: same
    // outcomes, same leakage, ciphertext batches in O(1) frames per chunk.
    let records = blobs(9, 88);
    let partition = VerticalPartition::split(&records, 1);
    let mut cfg = ProtocolConfig::new(
        DbscanParams {
            eps_sq: 81,
            min_pts: 2,
        },
        60,
    );
    cfg.comparator = Comparator::Dgk;
    cfg.key_bits = 64; // Dgk decrypts per bit; keep the test quick
    let unbatched = run_vertical_pair(&cfg, &partition, rng(5), rng(6)).unwrap();
    let batched = run_vertical_pair(&cfg.with_batching(true), &partition, rng(5), rng(6)).unwrap();
    // Measured: 112 -> 7 rounds (16x): 36 pairs, one chunk.
    assert_parity("vertical/dgk", &unbatched, &batched, 12.0);
}

/// Historically the hardest parity case: DGK's mask scalars are
/// value-rejection sampled, so under the old threaded-`StdRng` discipline
/// the batched HDP responder (all multiplications first, all comparisons
/// after) shifted every later query's Figure-1-defense permutation and the
/// `own#idx` leakage order diverged. Keyed substreams
/// (`ProtocolContext`) make every record's draws independent of execution
/// order, so batched and unbatched runs are identical by construction —
/// this test used to be `#[ignore]`d red and now pins the fix.
#[test]
fn dgk_backend_parity_on_horizontal() {
    let (alice, bob) = split_alternating(&blobs(24, 321));
    let mut cfg = base_cfg();
    cfg.comparator = Comparator::Dgk;
    cfg.key_bits = 64;
    let unbatched = run_horizontal_pair(&cfg, &alice, &bob, rng(5), rng(6)).unwrap();
    let batched =
        run_horizontal_pair(&cfg.with_batching(true), &alice, &bob, rng(5), rng(6)).unwrap();
    // Measured: 1,444 -> 14 rounds (103x), as under the Ideal comparator.
    assert_parity("horizontal/dgk", &unbatched, &batched, 80.0);
}

#[test]
fn batching_mismatch_is_rejected_at_handshake() {
    let records = blobs(6, 99);
    let partition = VerticalPartition::split(&records, 1);
    let cfg = base_cfg();
    let batched_cfg = cfg.with_batching(true);
    let result = ppds::ppdbscan::session::run_participants(
        Participant::new(cfg)
            .role(ppds::ppds_smc::Party::Alice)
            .data(PartyData::Vertical(partition.alice.clone()))
            .rng(rng(1)),
        Participant::new(batched_cfg)
            .role(ppds::ppds_smc::Party::Bob)
            .data(PartyData::Vertical(partition.bob.clone()))
            .rng(rng(2)),
    );
    match result.unwrap_err() {
        CoreError::HandshakeMismatch {
            field,
            ours,
            theirs,
        } => {
            assert_eq!(field, "batching");
            assert_eq!((ours, theirs), (0, 1), "alice reports her side first");
        }
        other => panic!("one-sided batching must fail with a typed error, got {other:?}"),
    }
}
