//! Round-batching parity: for every protocol family, the batched pipeline
//! must produce **byte-identical clusterings and identical leakage logs**
//! to the unbatched reference under the same seeds — batching changes the
//! framing, never the protocol — while collapsing wire rounds from
//! `O(pairs)` to `O(1)` per chunk of 1,024 candidate pairs (per step of a
//! chunk's longest selection, in the enhanced mode).

mod common;

use common::{
    rng, run_arbitrary_pair, run_enhanced_pair, run_horizontal_pair, run_multiparty,
    run_vertical_pair,
};
use ppds::ppdbscan::config::ProtocolConfig;
use ppds::ppdbscan::session::{Participant, PartyData};
use ppds::ppdbscan::{ArbitraryPartition, CoreError, PartyOutput, VerticalPartition};
use ppds::ppds_dbscan::datagen::{split_alternating, standard_blobs};
use ppds::ppds_dbscan::{dbscan, DbscanParams, Point, Pruning, Quantizer};
use ppds::ppds_smc::compare::Comparator;
use ppds::ppds_smc::kth::SelectionMethod;
use ppds::ppds_smc::BackendKind;

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
            // Measured: 1,096 -> 157 rounds (7.0x) under repeated-min, 964 /
            // 910 -> 43 (21-22x) under quickselect. Batched, a direction is
            // one chunk: a frame of flags, a dot exchange, and 3 Ideal rounds
            // per step of its longest selection — a scan is one pair a
            // step, a partition level a whole slice — plus the thresholds.
            let min_round_factor = match selection {
                SelectionMethod::RepeatedMin => 5.0,
                SelectionMethod::QuickSelect => 15.0,
            };
            assert_parity(
                &format!("enhanced/{label}/seed{seed}"),
                &unbatched,
                &batched,
                min_round_factor,
            );
            let engaged = unbatched.0.leakage.count_kind("threshold_rank")
                + unbatched.1.leakage.count_kind("threshold_rank")
                > 0;
            assert!(engaged, "{label}/seed{seed}: test must exercise selection");
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

// ---------------------------------------------------------------------------
// Framing pins
// ---------------------------------------------------------------------------

/// One party's traffic: `[bytes_sent, bytes_received, messages_sent,
/// messages_received, rounds_sent, rounds_received]`.
type Pin = [u64; 6];

fn pin_of(out: &PartyOutput) -> Pin {
    let t = &out.traffic;
    [
        t.bytes_sent,
        t.bytes_received,
        t.messages_sent,
        t.messages_received,
        t.rounds_sent,
        t.rounds_received,
    ]
}

#[derive(Clone, Copy, PartialEq)]
enum Family {
    Horizontal,
    Enhanced,
    Vertical,
    Arbitrary,
    Multiparty,
}

/// Every party's traffic for one run of `family` under `cfg`, on one fixed
/// dataset and one fixed pair of seeds. Grid pruning keeps a blob's own
/// points only, so those cells take twice the records to still engage.
fn framing_run(family: Family, cfg: &ProtocolConfig) -> Vec<Pin> {
    let n = if cfg.pruning == Pruning::Exhaustive {
        12
    } else {
        24
    };
    let records = blobs(n, 1414);
    let pair = |(a, b): (PartyOutput, PartyOutput)| vec![pin_of(&a), pin_of(&b)];
    match family {
        Family::Horizontal => {
            let (alice, bob) = split_alternating(&records);
            pair(run_horizontal_pair(cfg, &alice, &bob, rng(31), rng(32)).unwrap())
        }
        Family::Enhanced => {
            let (alice, bob) = split_alternating(&records);
            pair(run_enhanced_pair(cfg, &alice, &bob, rng(31), rng(32)).unwrap())
        }
        Family::Vertical => {
            let partition = VerticalPartition::split(&records, 1);
            pair(run_vertical_pair(cfg, &partition, rng(31), rng(32)).unwrap())
        }
        Family::Arbitrary => {
            let partition = ArbitraryPartition::random(&mut rng(33), &records);
            pair(run_arbitrary_pair(cfg, &partition, rng(31), rng(32)).unwrap())
        }
        Family::Multiparty => {
            let parties: Vec<Vec<Point>> = (0..3)
                .map(|p| records.iter().skip(p).step_by(3).cloned().collect())
                .collect();
            let outputs = run_multiparty(cfg, &parties, 31).unwrap();
            outputs.iter().map(pin_of).collect()
        }
    }
}

const FAMILIES: [(&str, Family); 5] = [
    ("horizontal", Family::Horizontal),
    ("enhanced", Family::Enhanced),
    ("vertical", Family::Vertical),
    ("arbitrary", Family::Arbitrary),
    ("multiparty", Family::Multiparty),
];

/// The pinned cells: name, family, configuration.
fn framing_cells() -> Vec<(String, Family, ProtocolConfig)> {
    let mut base = base_cfg();
    base.key_bits = 128;
    base.params.min_pts = 5; // the enhanced cells must engage their selection
    let grid = Pruning::Grid { coarseness: 1 };
    let mut cells = Vec::new();
    for (name, family) in FAMILIES {
        for backend in [BackendKind::Paillier, BackendKind::Sharing] {
            for batching in [false, true] {
                let framing = if batching { "batched" } else { "unbatched" };
                cells.push((
                    format!("{name}/{}/{framing}", backend.name()),
                    family,
                    base.with_backend(backend).with_batching(batching),
                ));
            }
        }
    }
    let dgk = ProtocolConfig {
        comparator: Comparator::Dgk,
        ..base
    };
    for (name, family) in [
        ("vertical", Family::Vertical),
        ("horizontal", Family::Horizontal),
    ] {
        cells.push((format!("{name}/dgk/unbatched"), family, dgk));
        cells.push((
            format!("{name}/dgk+packing/unbatched"),
            family,
            dgk.with_packing(true),
        ));
    }
    let quick = ProtocolConfig {
        selection: SelectionMethod::QuickSelect,
        ..base
    };
    for backend in [BackendKind::Paillier, BackendKind::Sharing] {
        cells.push((
            format!("enhanced/quickselect/{}/unbatched", backend.name()),
            Family::Enhanced,
            quick.with_backend(backend),
        ));
    }
    // The shapes the benchmark's enhanced workload and the server
    // workload's enhanced leg run.
    cells.push((
        "enhanced/dgk+packing+grid/batched".into(),
        Family::Enhanced,
        dgk.with_packing(true)
            .with_pruning(grid)
            .with_batching(true),
    ));
    cells.push((
        "enhanced/sharing+grid/batched".into(),
        Family::Enhanced,
        base.with_backend(BackendKind::Sharing)
            .with_pruning(grid)
            .with_batching(true),
    ));
    cells
}

/// Traffic recorded at the parent of the commit that made the slice form
/// the only form (wire v7, commit 285f80a): name, each party's [`Pin`], and
/// how many of its `[sent, received]` frames were batch frames there. Wire
/// v8 drops their 4-byte item count and nothing else, so `bytes == parent −
/// 4 × batch frames` while rounds and messages do not move at all. On
/// Paillier cells a ciphertext is a byte shorter about once in 256 draws,
/// so equal bytes also say that no draw moved to another keyed stream. A
/// two-party cell lists Alice; Bob's traffic is hers with the directions
/// swapped.
///
/// Nine Paillier cells were re-recorded, by 1–4 bytes in the peer→keyholder
/// direction only, when a negative scalar became an inverse (`(c⁻¹)^|k|` in
/// place of `c^(n−|k|)`): the same plaintext rides a different group
/// element in DGK replies and in HDP / ADP / dot responses to a negative
/// coordinate, and an element's minimal encoding is a byte shorter once in
/// 256. Rounds, messages, the keyholder→peer direction and every sharing
/// cell did not move (CHANGES.md, PR 17, lists each old → new value).
type FramingPin = (&'static str, &'static [Pin], &'static [[u64; 2]]);

const FRAMING_PINS: &[FramingPin] = &[
    (
        "horizontal/paillier/unbatched",
        &[[155_466, 155_464, 182, 182, 182, 182]],
        &[],
    ),
    (
        "horizontal/paillier/batched",
        &[[154_786, 154_784, 182, 182, 7, 7]],
        &[[5, 5]],
    ),
    (
        "horizontal/sharing/unbatched",
        &[[3054, 3054, 147, 147, 147, 147]],
        &[],
    ),
    (
        "horizontal/sharing/batched",
        &[[2510, 2510, 147, 147, 7, 7]],
        &[[4, 4]],
    ),
    (
        "enhanced/paillier/unbatched",
        &[[326_508, 326_508, 254, 254, 254, 254]],
        &[],
    ),
    (
        "enhanced/paillier/batched",
        &[[326_508, 326_508, 254, 254, 254, 254]],
        &[],
    ),
    (
        "enhanced/sharing/unbatched",
        &[[3996, 3996, 177, 177, 177, 177]],
        &[],
    ),
    (
        "enhanced/sharing/batched",
        &[[3996, 3996, 177, 177, 177, 177]],
        &[],
    ),
    (
        "vertical/paillier/unbatched",
        &[[271_092, 3396, 68, 134, 68, 134]],
        &[],
    ),
    (
        "vertical/paillier/batched",
        &[[270_836, 2884, 68, 134, 3, 4]],
        &[[1, 2]],
    ),
    (
        "vertical/sharing/unbatched",
        &[[966, 966, 69, 69, 69, 69]],
        &[],
    ),
    (
        "vertical/sharing/batched",
        &[[710, 710, 69, 69, 4, 4]],
        &[[1, 1]],
    ),
    (
        "arbitrary/paillier/unbatched",
        &[[274_097, 6404, 120, 186, 120, 186]],
        &[],
    ),
    (
        "arbitrary/paillier/batched",
        &[[273_641, 5692, 120, 186, 4, 5]],
        &[[2, 3]],
    ),
    (
        "arbitrary/sharing/unbatched",
        &[[2374, 1958, 121, 121, 121, 121]],
        &[],
    ),
    (
        "arbitrary/sharing/batched",
        &[[1918, 1502, 121, 121, 5, 5]],
        &[[2, 2]],
    ),
    (
        "multiparty/paillier/unbatched",
        &[
            [138_371, 138_372, 164, 164, 164, 164],
            [138_372, 138_372, 164, 164, 164, 164],
            [138_372, 138_371, 164, 164, 164, 164],
        ],
        &[],
    ),
    (
        "multiparty/paillier/batched",
        &[
            [137_811, 137_812, 164, 164, 14, 14],
            [137_812, 137_812, 164, 164, 14, 14],
            [137_812, 137_811, 164, 164, 14, 14],
        ],
        &[[10, 10], [10, 10], [10, 10]],
    ),
    (
        "multiparty/sharing/unbatched",
        &[
            [2908, 2908, 134, 134, 134, 134],
            [2908, 2908, 134, 134, 134, 134],
            [2908, 2908, 134, 134, 134, 134],
        ],
        &[],
    ),
    (
        "multiparty/sharing/batched",
        &[
            [2460, 2460, 134, 134, 14, 14],
            [2460, 2460, 134, 134, 14, 14],
            [2460, 2460, 134, 134, 14, 14],
        ],
        &[[8, 8], [8, 8], [8, 8]],
    ),
    (
        "vertical/dgk/unbatched",
        &[[39_030, 38_699, 134, 68, 134, 68]],
        &[],
    ),
    (
        "vertical/dgk+packing/unbatched",
        &[[39_030, 10_190, 134, 68, 134, 68]],
        &[],
    ),
    (
        "horizontal/dgk/unbatched",
        &[[48_142, 48_140, 182, 182, 182, 182]],
        &[],
    ),
    (
        "horizontal/dgk+packing/unbatched",
        &[[31_298, 31_296, 182, 182, 182, 182]],
        &[],
    ),
    (
        "enhanced/quickselect/paillier/unbatched",
        &[[243_673, 263_953, 204, 199, 204, 199]],
        &[],
    ),
    (
        "enhanced/quickselect/sharing/unbatched",
        &[[3576, 3576, 142, 142, 142, 142]],
        &[],
    ),
    (
        "enhanced/dgk+packing+grid/batched",
        &[[89_954, 94_154, 200, 204, 200, 204]],
        &[],
    ),
    (
        "enhanced/sharing+grid/batched",
        &[[4666, 4666, 149, 149, 149, 149]],
        &[],
    ),
];

/// Wire v9 regroups the enhanced mode's messages and changes none of them:
/// where the backend batches, the flags ride ahead 1,024 to a frame and a
/// chunk of engaged tests spends its frames per step, not per test. At v8
/// every batched enhanced cell above still shipped a frame per message
/// (`rounds == messages`: its pin *is* its unbatched twin's), so each cell
/// is held to that pin by rule — the same messages, `[sent, received]`
/// frames fewer as listed here, and 4 bytes of frame header fewer per frame
/// saved. The unbatched enhanced cells hold unedited.
const ENHANCED_FRAMES_SAVED: &[(&str, [u64; 2])] = &[
    ("enhanced/paillier/batched", [210, 210]),
    ("enhanced/sharing/batched", [145, 145]),
    ("enhanced/dgk+packing+grid/batched", [175, 179]),
    ("enhanced/sharing+grid/batched", [129, 129]),
];

#[test]
fn framing_reproduces_the_parent_commit_in_every_cell() {
    let mut report = String::new();
    let mut measured = Vec::new();
    for (name, family, cfg) in framing_cells() {
        let got = framing_run(family, &cfg);
        let (_, parent, batch_frames) = FRAMING_PINS
            .iter()
            .find(|pin| pin.0 == name)
            .unwrap_or_else(|| panic!("{name} is not pinned; measured {got:?}"));
        let mut want: Vec<Pin> = parent.to_vec();
        for (pin, frames) in want.iter_mut().zip(*batch_frames) {
            pin[0] -= 4 * frames[0];
            pin[1] -= 4 * frames[1];
        }
        if let Some((_, saved)) = ENHANCED_FRAMES_SAVED.iter().find(|cell| cell.0 == name) {
            for way in 0..2 {
                want[0][way] -= 4 * saved[way];
                want[0][4 + way] -= saved[way];
            }
        }
        if family != Family::Multiparty {
            let a = want[0];
            want.push([a[1], a[0], a[3], a[2], a[5], a[4]]);
        }
        if want != got {
            report.push_str(&format!("{name}: wanted {want:?}, measured {got:?}\n"));
        }
        measured.push((name, family, cfg, got));
    }
    // A message is a batch of one: with the item count gone from the batch
    // frame, the two framings of an unpacked cell carry the same payload
    // (bytes less the 4-byte header of every frame), in each direction.
    let payload = |p: &Pin| [p[0] - 4 * p[4], p[1] - 4 * p[5]];
    for (name, _, _, batched) in &measured {
        let Some(twin) = name.strip_suffix("/batched") else {
            continue;
        };
        let twin = format!("{twin}/unbatched");
        let Some((_, _, _, unbatched)) = measured.iter().find(|m| m.0 == twin) else {
            continue;
        };
        for (party, (b, u)) in batched.iter().zip(unbatched).enumerate() {
            if payload(b) != payload(u) {
                report.push_str(&format!(
                    "{name} party {party}: payload {:?}, {:?} unbatched\n",
                    payload(b),
                    payload(u)
                ));
            }
        }
    }
    assert!(report.is_empty(), "framing pins do not hold:\n{report}");
}
