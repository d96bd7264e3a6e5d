//! Handshake negative tests: any disagreement between the two halves must
//! fail fast on **both** sides with a typed
//! [`CoreError::HandshakeMismatch`] naming the offending field — never a
//! hang, never a generic decode error.

use ppdbscan::config::ProtocolConfig;
use ppdbscan::session::{Hello, Mode, Participant, PartyData, WIRE_VERSION};
use ppdbscan::CoreError;
use ppds_bigint::BigUint;
use ppds_dbscan::{DbscanParams, Point};
use ppds_paillier::Keypair;
use ppds_smc::{setup, Party};
use ppds_transport::tcp::TcpChannel;
use ppds_transport::{duplex, Channel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpListener;
use std::sync::{Arc, Mutex};
use std::time::Duration;

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
    // sends a Hello advertising a different wire version — 17 is the build
    // whose Bob read Alice's key frame before sending his own. The real
    // participant must reject it by name — before any protocol message.
    assert_eq!(WIRE_VERSION, 18, "re-aim the past/future versions below");
    for peer_version in [17u32, 19] {
        let (mut real_chan, mut fake_chan) = duplex();
        let fake = std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(99);
            let kp = Keypair::generate(256, &mut rng);
            setup::exchange_keys(&mut fake_chan, &kp, false).unwrap();
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
        setup::exchange_keys(&mut fake_chan, &kp, false).unwrap();
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

/// Runs `participant` over a loopback socket whose reads and writes time
/// out after 10 s, against `peer` on the other end: a hang fails as a
/// `Timeout` instead of stalling the suite.
fn against_tcp_peer<T: Send>(
    participant: Participant,
    peer: impl FnOnce(&mut TcpChannel) -> T + Send,
) -> (Result<ppdbscan::SessionOutcome, CoreError>, T) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let timeout = Some(Duration::from_secs(10));
    std::thread::scope(|scope| {
        let fake = scope.spawn(move || {
            let mut chan = TcpChannel::connect(addr).unwrap();
            chan.set_timeout(timeout).unwrap();
            peer(&mut chan)
        });
        let mut chan = TcpChannel::accept(&listener).unwrap();
        chan.set_timeout(timeout).unwrap();
        let real = participant.run(&mut chan);
        drop(chan);
        (real, fake.join().unwrap())
    })
}

/// A hand-rolled peer in the v17 order — a v17 Alice sends her key frame
/// and waits for Bob's, a v17 Bob waits for Alice's before sending his —
/// against this build, which sends its whole flight first: each side gets
/// the other's `Hello` and both end with a typed `wire_version` mismatch
/// over a socket that times out after 10 s, so neither hangs.
#[test]
fn a_v17_order_peer_is_refused_by_name_on_both_sides_without_a_hang() {
    let old = || Hello::for_session(&cfg(4), Mode::Horizontal, 2, 2).with_wire_version(17);
    for real_role in [Party::Alice, Party::Bob] {
        let kp = Keypair::generate(256, &mut StdRng::seed_from_u64(97));
        let (real, fake) = against_tcp_peer(horizontal(cfg(4), 21).role(real_role), |chan| {
            if real_role == Party::Bob {
                setup::send_public_key(chan, &kp, false).unwrap();
                setup::recv_public_key(chan).unwrap();
            } else {
                setup::recv_public_key(chan).unwrap();
                setup::send_public_key(chan, &kp, false).unwrap();
            }
            chan.send(&old()).unwrap();
            let theirs: Hello = chan.recv().unwrap();
            old().check_against(&theirs)
        });
        let (ours, theirs) = expect_mismatch("v18", real, "wire_version");
        assert_eq!((ours, theirs), (18, 17), "{real_role:?}");
        match fake {
            Err(CoreError::HandshakeMismatch {
                field: "wire_version",
                ours: 17,
                theirs: 18,
            }) => {}
            other => {
                panic!("{real_role:?}: the v17 side wanted a wire_version refusal, got {other:?}")
            }
        }
    }
}

/// Every field the handshake agrees on is still named on both sides now
/// that both send their whole flight before reading: one disagreement at
/// a time, each side reporting its own value first.
#[test]
fn every_agreed_field_mismatch_is_named_on_both_sides() {
    use ppds_dbscan::Pruning;
    use ppds_smc::BackendKind;
    let base = cfg(4);
    let mut cases: Vec<(&str, ProtocolConfig)> = Vec::new();
    let mut push = |field, edit: &dyn Fn(&mut ProtocolConfig)| {
        let mut other = base;
        edit(&mut other);
        cases.push((field, other));
    };
    push("coord_bound", &|c| c.coord_bound = 11);
    push("eps_sq", &|c| c.params.eps_sq = 9);
    push("min_pts", &|c| c.params.min_pts = 3);
    push("key_bits", &|c| c.key_bits = 320);
    push("comparator", &|c| {
        c.comparator = ppds_smc::compare::Comparator::Dgk
    });
    push("selection", &|c| {
        c.selection = ppds_smc::kth::SelectionMethod::QuickSelect
    });
    push("mask_bits", &|c| c.mask_bits = 8);
    push("batching", &|c| c.batching = !c.batching);
    push("packing", &|c| c.packing = !c.packing);
    push("backend", &|c| c.backend = BackendKind::Sharing);
    push("pruning", &|c| c.pruning = Pruning::Grid { coarseness: 1 });
    for (seed, (field, other)) in (40..).zip(cases) {
        let (a, b) = run_both(
            horizontal(base, seed).role(Party::Alice),
            horizontal(other, seed + 100).role(Party::Bob),
        );
        let (a_ours, a_theirs) = expect_mismatch("alice", a, field);
        let (b_ours, b_theirs) = expect_mismatch("bob", b, field);
        assert_eq!((a_ours, a_theirs), (b_theirs, b_ours), "{field}");
    }
    let (a, b) = run_both(
        horizontal(base, 60).role(Party::Alice),
        Participant::new(base)
            .data(PartyData::Enhanced(points()))
            .seed(61)
            .role(Party::Bob),
    );
    expect_mismatch("alice", a, "mode");
    expect_mismatch("bob", b, "mode");
}

/// Records, per node, whether each frame at the socket was a send or a
/// read.
struct Ordered {
    inner: TcpChannel,
    log: Arc<Mutex<Vec<char>>>,
}

impl Channel for Ordered {
    fn send_bytes(&mut self, payload: &[u8]) -> Result<(), ppds_transport::TransportError> {
        self.log.lock().unwrap().push('s');
        self.inner.send_bytes(payload)
    }

    fn recv_bytes(&mut self) -> Result<Vec<u8>, ppds_transport::TransportError> {
        let payload = self.inner.recv_bytes()?;
        self.log.lock().unwrap().push('r');
        Ok(payload)
    }

    fn metrics(&self) -> ppds_transport::MetricsSnapshot {
        self.inner.metrics()
    }
}

/// A K = 3 mesh over loopback sockets establishes in one flight: every node
/// sends its key frame and `Hello` to both peers before it reads from
/// either, and the sessions then run to the end.
#[test]
fn a_three_node_tcp_mesh_establishes_with_every_node_sending_first() {
    let k = 3;
    let logs: Vec<Arc<Mutex<Vec<char>>>> = (0..k).map(|_| Arc::default()).collect();
    let mut mesh: Vec<Vec<(usize, Ordered)>> = (0..k).map(|_| Vec::new()).collect();
    let timeout = Some(Duration::from_secs(10));
    for i in 0..k {
        for j in i + 1..k {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let accept = std::thread::spawn(move || TcpChannel::accept(&listener).unwrap());
            let connect = TcpChannel::connect(addr).unwrap();
            for (node, peer, inner) in [(i, j, accept.join().unwrap()), (j, i, connect)] {
                inner.set_timeout(timeout).unwrap();
                let log = Arc::clone(&logs[node]);
                mesh[node].push((peer, Ordered { inner, log }));
            }
        }
    }
    let handles: Vec<_> = mesh
        .into_iter()
        .enumerate()
        .map(|(me, mut peers)| {
            let data = PartyData::Multiparty(vec![Point::new(vec![me as i64, 0])]);
            let node = Participant::new(cfg(4)).data(data).seed(70 + me as u64);
            std::thread::spawn(move || node.run_mesh(&mut peers, me, k).unwrap())
        })
        .collect();
    for handle in handles {
        let outcome = handle.join().unwrap();
        assert_eq!(outcome.meta.peers.len(), 2);
    }
    for (node, log) in logs.iter().enumerate() {
        let log = log.lock().unwrap();
        // Two frames a peer (key frame, Hello) on the Paillier backend.
        let first_read = log.iter().position(|&op| op == 'r').unwrap();
        assert_eq!(first_read, 4, "node {node}: {log:?}");
    }
}

/// Decoding the establish frames never panics: every truncation and every
/// single-bit flip of a `Hello` — with an unknown field and a duplicated
/// one riding along — and of a key frame with and without DGK parts gives
/// a value or a typed error. A modulus that is even or below the minimum
/// size is refused before a key is built from it.
#[test]
fn establish_frames_decode_to_a_value_or_a_typed_error_never_a_panic() {
    use ppds_transport::wire::{WireDecode, WireEncode};
    let kp = Keypair::generate(128, &mut StdRng::seed_from_u64(96));
    let mut hello = Hello::for_session(&cfg(4), Mode::Horizontal, 2, 2)
        .with_session_id(5)
        .encode_to_vec();
    // An unknown field (id 200) and a second copy of the mode field.
    let count = u32::from_le_bytes(hello[4..8].try_into().unwrap()) + 2;
    hello[4..8].copy_from_slice(&count.to_le_bytes());
    for (id, value) in [(200u8, 7u64), (1, 1)] {
        id.encode(&mut hello);
        value.encode(&mut hello);
    }
    let key = |dgk: bool| {
        let frame = setup::KeyFrame {
            n: kp.public.n().clone(),
            dgk: kp.public.dgk().filter(|_| dgk).map(|key| key.to_parts()),
        };
        frame.encode_to_vec()
    };
    let mutants = |frame: &[u8]| {
        let cut = (0..frame.len()).map(|len| frame[..len].to_vec());
        let flips = (0..frame.len() * 8).map(move |bit| {
            let mut flipped = frame.to_vec();
            flipped[bit / 8] ^= 1 << (bit % 8);
            flipped
        });
        cut.chain(flips).collect::<Vec<_>>()
    };
    for frame in mutants(&hello) {
        if let Ok(decoded) = Hello::decode_exact(&frame) {
            let _ = Hello::for_session(&cfg(4), Mode::Horizontal, 2, 2).check_against(&decoded);
        }
    }
    for frame in [key(false), key(true)].iter().flat_map(|f| mutants(f)) {
        let (mut ours, mut theirs) = duplex();
        ours.send_bytes(&frame).unwrap();
        let _ = setup::recv_public_key(&mut theirs);
    }
    for refused in [BigUint::from_u64(1 << 40), BigUint::from_u64(0x7fff)] {
        let (mut ours, mut theirs) = duplex();
        ours.send(&setup::KeyFrame {
            n: refused,
            dgk: None,
        })
        .unwrap();
        let got = setup::recv_public_key(&mut theirs);
        assert!(matches!(got, Err(ppds_smc::SmcError::Crypto(_))), "{got:?}");
    }
}
