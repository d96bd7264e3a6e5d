//! Pruning parity: grid candidate pruning must be a pure *work* optimization,
//! never a *result* change, wherever the candidate generator is exact.
//!
//! For every protocol mode, both backends, and both wire framings, the pruned
//! run (`Pruning::Grid`) is compared against the exhaustive run
//! (`Pruning::Exhaustive`) under identical seeds on a workload of two blobs
//! far enough apart that every cross-blob pair falls outside the pruning
//! bands:
//!
//! 1. clustering labels are byte-identical — grid pruning only skips pairs
//!    that are provably non-neighbors (band distance ≥ 2 ⟹ gap > Eps);
//! 2. the modeled secure-comparison count strictly drops — the whole point
//!    of the subsystem;
//! 3. every disclosure pruning makes is a typed `LeakageLog` event:
//!    per-query cell/candidate-count events in the point-holding modes,
//!    one band-table event per party in the attribute-split modes — and
//!    exhaustive runs emit none of them;
//! 4. the mode-appropriate slice of the classic leakage profile is
//!    unchanged: `NeighborCount` sequences (Theorems 9/10) survive pruning
//!    exactly, and the responder-side `OwnPointMatched` multiset is
//!    preserved (only the Figure-1-defense permutation order may differ,
//!    because it now permutes the candidate list).

mod common;

use common::{
    run_arbitrary_pair, run_enhanced_pair, run_horizontal_pair, run_multiparty, run_vertical_pair,
};
use ppds::ppdbscan::config::ProtocolConfig;
use ppds::ppdbscan::{ArbitraryPartition, PartyOutput, VerticalPartition};
use ppds::ppds_dbscan::{DbscanParams, Point, Pruning};
use ppds::ppds_smc::{BackendKind, LeakageEvent, LeakageLog};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Two tight blobs separated by far more than Eps: with `eps_sq = 8` the
/// band width at coarseness 1 is 3, so the blobs sit ~10 bands apart and
/// every cross-blob candidate is pruned. The ±1 spread keeps every
/// intra-blob pair within Eps (max squared distance 8), so each blob is a
/// clique — which lets the enhanced test force joint core tests to engage.
fn two_blob_points(seed: u64) -> Vec<Point> {
    let mut r = rng(seed);
    let mut points = Vec::new();
    for center in [0i64, 30] {
        for _ in 0..6 {
            points.push(Point::new(vec![
                center + r.random_range(-1i64..=1),
                center + r.random_range(-1i64..=1),
            ]));
        }
    }
    points
}

fn base_cfg() -> ProtocolConfig {
    ProtocolConfig::new(
        DbscanParams {
            eps_sq: 8,
            min_pts: 2,
        },
        34,
    )
}

/// The backend × framing matrix every mode is checked under.
fn config_matrix() -> Vec<(&'static str, ProtocolConfig)> {
    vec![
        ("paillier", base_cfg()),
        (
            "paillier/batched+packed",
            base_cfg().with_batching(true).with_packing(true),
        ),
        ("sharing", base_cfg().with_backend(BackendKind::Sharing)),
        (
            "sharing/batched",
            base_cfg()
                .with_backend(BackendKind::Sharing)
                .with_batching(true),
        ),
    ]
}

const PRUNING_KINDS: [&str; 3] = ["pruning_cell", "pruning_candidates", "pruning_bands"];

fn events_of_kind(log: &LeakageLog, kind: &str) -> Vec<LeakageEvent> {
    log.events()
        .iter()
        .filter(|e| e.kind() == kind)
        .cloned()
        .collect()
}

fn own_matched_multiset(log: &LeakageLog) -> Vec<String> {
    let mut points: Vec<String> = log
        .events()
        .iter()
        .filter_map(|e| match e {
            LeakageEvent::OwnPointMatched { point } => Some(point.clone()),
            _ => None,
        })
        .collect();
    points.sort();
    points
}

/// What pruning disclosure shape a mode uses, and which slices of the
/// classic leakage profile it must preserve exactly.
struct ModeProfile {
    /// Per-query cell/count exchange (`true`) vs up-front band tables.
    cell_exchange: bool,
    /// `NeighborCount` sequences must match event-for-event.
    neighbor_counts_exact: bool,
    /// The `OwnPointMatched` multiset must match.
    own_matched_multiset: bool,
    /// `CorePointBit` sequences must match event-for-event (enhanced).
    core_bits_exact: bool,
}

fn assert_party_parity(
    name: &str,
    exhaustive: &PartyOutput,
    pruned: &PartyOutput,
    p: &ModeProfile,
) {
    assert_eq!(
        exhaustive.clustering, pruned.clustering,
        "{name}: pruned labels must be byte-identical"
    );
    assert!(
        pruned.yao.comparisons < exhaustive.yao.comparisons,
        "{name}: pruning must strictly cut comparisons ({} -> {})",
        exhaustive.yao.comparisons,
        pruned.yao.comparisons
    );
    for kind in PRUNING_KINDS {
        assert_eq!(
            exhaustive.leakage.count_kind(kind),
            0,
            "{name}: exhaustive run must emit no {kind} events"
        );
    }
    if p.cell_exchange {
        assert!(
            pruned.leakage.count_kind("pruning_cell") > 0,
            "{name}: responder role must ledger disclosed query cells"
        );
        assert!(
            pruned.leakage.count_kind("pruning_candidates") > 0,
            "{name}: querier role must ledger candidate cardinalities"
        );
        assert_eq!(
            pruned.leakage.count_kind("pruning_bands"),
            0,
            "{name}: point-holding modes never exchange band tables"
        );
    } else {
        assert_eq!(
            pruned.leakage.count_kind("pruning_bands"),
            1,
            "{name}: attribute-split modes exchange exactly one band table"
        );
        assert_eq!(
            pruned.leakage.count_kind("pruning_cell")
                + pruned.leakage.count_kind("pruning_candidates"),
            0,
            "{name}: attribute-split modes never run the per-query exchange"
        );
    }
    if p.neighbor_counts_exact {
        assert_eq!(
            events_of_kind(&exhaustive.leakage, "neighbor_count"),
            events_of_kind(&pruned.leakage, "neighbor_count"),
            "{name}: NeighborCount sequence must survive pruning exactly"
        );
    }
    if p.own_matched_multiset {
        assert_eq!(
            own_matched_multiset(&exhaustive.leakage),
            own_matched_multiset(&pruned.leakage),
            "{name}: OwnPointMatched multiset must survive pruning"
        );
    }
    if p.core_bits_exact {
        assert_eq!(
            events_of_kind(&exhaustive.leakage, "core_point_bit"),
            events_of_kind(&pruned.leakage, "core_point_bit"),
            "{name}: CorePointBit sequence must survive pruning exactly"
        );
    }
}

fn assert_pair_parity(
    name: &str,
    exhaustive: &(PartyOutput, PartyOutput),
    pruned: &(PartyOutput, PartyOutput),
    profile: &ModeProfile,
) {
    assert_party_parity(&format!("{name}/alice"), &exhaustive.0, &pruned.0, profile);
    assert_party_parity(&format!("{name}/bob"), &exhaustive.1, &pruned.1, profile);
}

const HORIZONTAL: ModeProfile = ModeProfile {
    cell_exchange: true,
    neighbor_counts_exact: true,
    own_matched_multiset: true,
    core_bits_exact: false,
};

/// Enhanced discloses no neighbor counts; the k-th selection's comparison
/// outcomes legitimately differ (they range over a smaller candidate list),
/// so only labels, core bits, and the comparison drop are pinned.
const ENHANCED: ModeProfile = ModeProfile {
    cell_exchange: true,
    neighbor_counts_exact: false,
    own_matched_multiset: false,
    core_bits_exact: true,
};

const BANDED: ModeProfile = ModeProfile {
    cell_exchange: false,
    neighbor_counts_exact: true,
    own_matched_multiset: false,
    core_bits_exact: false,
};

#[test]
fn horizontal_pruning_is_exact_and_cheaper() {
    let points = two_blob_points(0xE13);
    let (alice, bob): (Vec<_>, Vec<_>) = points
        .iter()
        .cloned()
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);
    let alice: Vec<Point> = alice.into_iter().map(|(_, p)| p).collect();
    let bob: Vec<Point> = bob.into_iter().map(|(_, p)| p).collect();
    for (tag, cfg) in config_matrix() {
        let pruned_cfg = cfg.with_pruning(Pruning::Grid { coarseness: 1 });
        let ex = run_horizontal_pair(&cfg, &alice, &bob, rng(1), rng(2)).unwrap();
        let pr = run_horizontal_pair(&pruned_cfg, &alice, &bob, rng(1), rng(2)).unwrap();
        assert_pair_parity(&format!("horizontal/{tag}"), &ex, &pr, &HORIZONTAL);
    }
}

#[test]
fn enhanced_pruning_is_exact_and_cheaper() {
    let points = two_blob_points(0xE14);
    // Alternating split: each party holds 3 points of each 6-point clique,
    // so with min_pts = 5 every core test must engage the peer (own side
    // alone can never reach the threshold) and every engaged selection
    // ranges over 3 pruned candidates instead of all 6 peer points.
    let (alice, bob): (Vec<_>, Vec<_>) = points
        .iter()
        .cloned()
        .enumerate()
        .partition(|(i, _)| i % 2 == 0);
    let alice: Vec<Point> = alice.into_iter().map(|(_, p)| p).collect();
    let bob: Vec<Point> = bob.into_iter().map(|(_, p)| p).collect();
    for (tag, cfg) in config_matrix() {
        let mut cfg = cfg;
        cfg.params.min_pts = 5;
        let pruned_cfg = cfg.with_pruning(Pruning::Grid { coarseness: 1 });
        let ex = run_enhanced_pair(&cfg, &alice, &bob, rng(3), rng(4)).unwrap();
        let pr = run_enhanced_pair(&pruned_cfg, &alice, &bob, rng(3), rng(4)).unwrap();
        assert_pair_parity(&format!("enhanced/{tag}"), &ex, &pr, &ENHANCED);
    }
}

#[test]
fn vertical_pruning_is_exact_and_cheaper() {
    let points = two_blob_points(0xE15);
    let partition = VerticalPartition::split(&points, 1);
    for (tag, cfg) in config_matrix() {
        let pruned_cfg = cfg.with_pruning(Pruning::Grid { coarseness: 1 });
        let ex = run_vertical_pair(&cfg, &partition, rng(5), rng(6)).unwrap();
        let pr = run_vertical_pair(&pruned_cfg, &partition, rng(5), rng(6)).unwrap();
        assert_pair_parity(&format!("vertical/{tag}"), &ex, &pr, &BANDED);
    }
}

#[test]
fn arbitrary_pruning_is_exact_and_cheaper() {
    let points = two_blob_points(0xE16);
    let partition = ArbitraryPartition::random(&mut rng(0xA5A5), &points);
    for (tag, cfg) in config_matrix() {
        let pruned_cfg = cfg.with_pruning(Pruning::Grid { coarseness: 1 });
        let ex = run_arbitrary_pair(&cfg, &partition, rng(7), rng(8)).unwrap();
        let pr = run_arbitrary_pair(&pruned_cfg, &partition, rng(7), rng(8)).unwrap();
        assert_pair_parity(&format!("arbitrary/{tag}"), &ex, &pr, &BANDED);
    }
}

/// FNV-1a over the `Debug` rendering of every run's labels and leakage
/// log, both parties, the whole backend × framing × pruning matrix.
fn lockstep_digest(
    run: impl Fn(&ProtocolConfig) -> (PartyOutput, PartyOutput),
    unordered_pairs: u64,
) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (tag, cfg) in config_matrix() {
        for pruning in [Pruning::Exhaustive, Pruning::Grid { coarseness: 1 }] {
            let (a, b) = run(&cfg.with_pruning(pruning));
            if pruning == Pruning::Exhaustive {
                assert_eq!(
                    a.yao.comparisons, unordered_pairs,
                    "{tag}: each unordered pair is compared exactly once"
                );
            }
            for out in [&a, &b] {
                for byte in format!("{:?}{:?}", out.clustering, out.leakage).bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
    }
    hash
}

/// The lockstep modes resolve every candidate pair before the DBSCAN loop
/// runs instead of one region query at a time. That must be invisible in
/// what a party learns: these digests were recorded from the per-query
/// implementation (commit 5e156eb) on the same fixtures and seeds.
#[test]
fn lockstep_labels_and_leakage_match_the_per_query_protocol_byte_for_byte() {
    let points = two_blob_points(0xE15);
    let pairs = (points.len() * (points.len() - 1) / 2) as u64;
    let vertical = VerticalPartition::split(&points, 1);
    assert_eq!(
        lockstep_digest(
            |cfg| run_vertical_pair(cfg, &vertical, rng(5), rng(6)).unwrap(),
            pairs
        ),
        VERTICAL_DIGEST,
        "vertical"
    );
    let points = two_blob_points(0xE16);
    let arbitrary = ArbitraryPartition::random(&mut rng(0xA5A5), &points);
    assert_eq!(
        lockstep_digest(
            |cfg| run_arbitrary_pair(cfg, &arbitrary, rng(7), rng(8)).unwrap(),
            pairs
        ),
        ARBITRARY_DIGEST,
        "arbitrary"
    );
}

const VERTICAL_DIGEST: u64 = 6_306_366_760_291_938_789;
const ARBITRARY_DIGEST: u64 = 5_573_700_035_338_436_389;

#[test]
fn multiparty_pruning_is_exact_and_cheaper() {
    let points = two_blob_points(0xE17);
    let parties = vec![
        points[..4].to_vec(),
        points[4..8].to_vec(),
        points[8..].to_vec(),
    ];
    for (tag, cfg) in config_matrix() {
        let pruned_cfg = cfg.with_pruning(Pruning::Grid { coarseness: 1 });
        let ex = run_multiparty(&cfg, &parties, 99).unwrap();
        let pr = run_multiparty(&pruned_cfg, &parties, 99).unwrap();
        assert_eq!(ex.len(), pr.len());
        for (i, (eo, po)) in ex.iter().zip(&pr).enumerate() {
            assert_party_parity(&format!("multiparty/{tag}/party{i}"), eo, po, &HORIZONTAL);
        }
    }
}
