//! Handshake negative tests: any disagreement between the two halves must
//! fail fast on **both** sides with a typed
//! [`CoreError::HandshakeMismatch`] naming the offending field — never a
//! hang, never a generic decode error.

use ppdbscan::config::ProtocolConfig;
use ppdbscan::session::{Hello, Mode, Participant, PartyData, WIRE_VERSION};
use ppdbscan::CoreError;
use ppds_dbscan::{DbscanParams, Point};
use ppds_paillier::Keypair;
use ppds_smc::{setup, Party};
use ppds_transport::{duplex, Channel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cfg(eps_sq: u64) -> ProtocolConfig {
    ProtocolConfig::new(DbscanParams { eps_sq, min_pts: 2 }, 10)
}

fn points() -> Vec<Point> {
    vec![Point::new(vec![0, 0]), Point::new(vec![1, 1])]
}

/// Runs two participants against each other and returns **both** sides'
/// results (unlike `run_participants`, which surfaces only the first
/// error).
fn run_both(
    alice: Participant,
    bob: Participant,
) -> (
    Result<ppdbscan::SessionOutcome, CoreError>,
    Result<ppdbscan::SessionOutcome, CoreError>,
) {
    let (mut chan_a, mut chan_b) = duplex();
    std::thread::scope(|scope| {
        let a = scope.spawn(move || alice.run(&mut chan_a));
        let b = scope.spawn(move || bob.run(&mut chan_b));
        (a.join().unwrap(), b.join().unwrap())
    })
}

/// Asserts one side failed with `HandshakeMismatch` on `field`, returning
/// `(ours, theirs)`.
fn expect_mismatch(
    side: &str,
    result: Result<ppdbscan::SessionOutcome, CoreError>,
    field: &str,
) -> (u64, u64) {
    match result {
        Err(CoreError::HandshakeMismatch {
            field: got,
            ours,
            theirs,
        }) => {
            assert_eq!(got, field, "{side}: wrong field named");
            (ours, theirs)
        }
        Err(other) => panic!("{side}: wanted HandshakeMismatch on {field}, got {other:?}"),
        Ok(_) => panic!("{side}: session ran despite {field} mismatch"),
    }
}

fn horizontal(c: ProtocolConfig, seed: u64) -> Participant {
    Participant::new(c)
        .data(PartyData::Horizontal(points()))
        .seed(seed)
}

#[test]
fn eps_sq_mismatch_fails_on_both_sides_naming_the_field() {
    let (a, b) = run_both(
        horizontal(cfg(4), 1).role(Party::Alice),
        horizontal(cfg(9), 2).role(Party::Bob),
    );
    let (a_ours, a_theirs) = expect_mismatch("alice", a, "eps_sq");
    let (b_ours, b_theirs) = expect_mismatch("bob", b, "eps_sq");
    assert_eq!((a_ours, a_theirs), (4, 9));
    assert_eq!((b_ours, b_theirs), (9, 4), "sides swapped symmetrically");
}

#[test]
fn batching_mismatch_fails_on_both_sides_naming_the_field() {
    let (a, b) = run_both(
        horizontal(cfg(4), 3).role(Party::Alice),
        horizontal(cfg(4).with_batching(true), 4).role(Party::Bob),
    );
    assert_eq!(expect_mismatch("alice", a, "batching"), (0, 1));
    assert_eq!(expect_mismatch("bob", b, "batching"), (1, 0));
}

#[test]
fn packing_mismatch_fails_on_both_sides_naming_the_field() {
    let (a, b) = run_both(
        horizontal(cfg(4), 13).role(Party::Alice),
        horizontal(cfg(4).with_packing(true), 14).role(Party::Bob),
    );
    assert_eq!(expect_mismatch("alice", a, "packing"), (0, 1));
    assert_eq!(expect_mismatch("bob", b, "packing"), (1, 0));
}

#[test]
fn packing_and_batching_disagreements_name_their_own_fields() {
    // Both knobs differ: the handshake reports the first disagreeing field
    // in tag order (batching precedes packing), on both sides.
    let (a, b) = run_both(
        horizontal(cfg(4).with_batching(true), 15).role(Party::Alice),
        horizontal(cfg(4).with_packing(true), 16).role(Party::Bob),
    );
    assert_eq!(expect_mismatch("alice", a, "batching"), (1, 0));
    assert_eq!(expect_mismatch("bob", b, "batching"), (0, 1));
}

#[test]
fn comparator_mismatch_fails_on_both_sides_naming_the_field() {
    let mut dgk = cfg(4);
    dgk.comparator = ppds_smc::compare::Comparator::Dgk;
    let (a, b) = run_both(
        horizontal(cfg(4), 5).role(Party::Alice),
        horizontal(dgk, 6).role(Party::Bob),
    );
    // Ideal = 1, Dgk = 2 on the wire.
    assert_eq!(expect_mismatch("alice", a, "comparator"), (1, 2));
    assert_eq!(expect_mismatch("bob", b, "comparator"), (2, 1));
}

#[test]
fn wire_version_mismatch_is_a_typed_error_not_a_hang_or_decode_failure() {
    // A past or "future" peer: completes the key exchange honestly, then
    // sends a Hello advertising a different wire version — 16 is the build
    // that sent an enhanced DGK comparison's `ℓ` bits where this one takes
    // `m + 3`, and would refuse this build's bit vector as hostile. The real
    // participant must reject it by name — before any protocol message.
    assert_eq!(WIRE_VERSION, 17, "re-aim the past/future versions below");
    for peer_version in [16u32, 18] {
        let (mut real_chan, mut fake_chan) = duplex();
        let fake = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(99);
            let kp = Keypair::generate(256, &mut rng);
            setup::exchange_keys_bob(&mut fake_chan, &kp, false).unwrap();
            let hello =
                Hello::for_session(&cfg(4), Mode::Horizontal, 2, 2).with_wire_version(peer_version);
            fake_chan.send(&hello).unwrap();
            // Drain the real side's hello so its send doesn't block.
            let _theirs: Hello = fake_chan.recv().unwrap();
        });
        let err = horizontal(cfg(4), 7)
            .role(Party::Alice)
            .run(&mut real_chan)
            .unwrap_err();
        fake.join().unwrap();
        match err {
            CoreError::HandshakeMismatch {
                field,
                ours,
                theirs,
            } => {
                assert_eq!(field, "wire_version");
                assert_eq!(ours, u64::from(WIRE_VERSION));
                assert_eq!(theirs, u64::from(peer_version));
            }
            other => panic!("wanted HandshakeMismatch on wire_version, got {other:?}"),
        }
    }
}

#[test]
fn legacy_vec_u64_meta_frame_is_rejected_as_a_version_mismatch() {
    // The pre-session handshake sent a bare Vec<u64> of 11 magic numbers.
    // Its bytes decode leniently as a Hello whose "version" is the length
    // prefix (11), so a current participant rejects it with a typed
    // wire_version error instead of a decode failure mid-frame.
    let (mut real_chan, mut fake_chan) = duplex();
    let fake = std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(98);
        let kp = Keypair::generate(256, &mut rng);
        setup::exchange_keys_bob(&mut fake_chan, &kp, false).unwrap();
        let legacy_meta: Vec<u64> = vec![1, 2, 2, 10, 4, 2, 256, 1, 0, 20, 0];
        fake_chan.send(&legacy_meta).unwrap();
        let _theirs: Hello = fake_chan.recv().unwrap();
    });
    let err = horizontal(cfg(4), 8)
        .role(Party::Alice)
        .run(&mut real_chan)
        .unwrap_err();
    fake.join().unwrap();
    match err {
        CoreError::HandshakeMismatch { field, theirs, .. } => {
            assert_eq!(field, "wire_version");
            assert_eq!(theirs, 11, "the Vec length prefix reads as the version");
        }
        other => panic!("wanted HandshakeMismatch on wire_version, got {other:?}"),
    }
}

#[test]
fn selection_and_mask_bits_mismatches_are_also_typed() {
    let mut quickselect = cfg(4);
    quickselect.selection = ppds_smc::kth::SelectionMethod::QuickSelect;
    let (a, _b) = run_both(
        horizontal(cfg(4), 9).role(Party::Alice),
        horizontal(quickselect, 10).role(Party::Bob),
    );
    expect_mismatch("alice", a, "selection");

    let mut wide = cfg(4);
    wide.mask_bits = 8;
    let (a, _b) = run_both(
        horizontal(cfg(4), 11).role(Party::Alice),
        horizontal(wide, 12).role(Party::Bob),
    );
    assert_eq!(expect_mismatch("alice", a, "mask_bits"), (20, 8));
}
