//! Failure injection: a semi-honest implementation still has to fail
//! *cleanly* on malformed input — typed errors, never panics, never wrong
//! answers — because in deployment the peer is a different codebase.

use ppdbscan::config::ProtocolConfig;
use ppdbscan::session::{Hello, Mode, Participant, PartyData};
use ppdbscan::CoreError;
use ppds_bigint::BigUint;
use ppds_dbscan::{DbscanParams, Point, Pruning};
use ppds_paillier::{Keypair, PaillierError, SlotLayout};
use ppds_smc::backend::clamp_sharing_bound;
use ppds_smc::compare::{compare_bob, CmpOp, Comparator, ComparisonDomain};
use ppds_smc::millionaires::{yao_bob, YaoConfig};
use ppds_smc::multiplication::mul_batches_peer;
use ppds_smc::{
    setup, AnyBackend, BackendKind, DealerTape, PaillierBackend, Party, ProtocolContext,
    ResponsePacking, SharingBackend, SharingLedger, SmcBackend, SmcError,
};
use ppds_transport::{duplex, Channel, MemoryChannel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn test_keypair() -> Keypair {
    Keypair::generate(128, &mut rng(0))
}

#[test]
fn garbage_public_key_is_rejected_not_panicking() {
    let (mut a, mut b) = duplex();
    a.send(&BigUint::from_u64(12)).unwrap(); // even "modulus"
    let err = setup::recv_public_key(&mut b).unwrap_err();
    assert!(matches!(err, SmcError::Crypto(_)));
}

/// The multiplication peer of one single-element group, fed `frame` by hand.
fn multiplication_peer_fed(frame: &impl ppds_transport::WireEncode, seed: u64) -> SmcError {
    let kp = test_keypair();
    let (mut a, mut b) = duplex();
    a.send(frame).unwrap();
    let one = ppds_bigint::BigInt::from_i64(1);
    mul_batches_peer(
        &mut b,
        &kp.public,
        &[[one.clone()]],
        |_| vec![one.clone()],
        |_| ProtocolContext::new(seed),
        None,
    )
    .unwrap_err()
}

#[test]
fn zero_ciphertext_in_multiplication_is_crypto_error() {
    let err = multiplication_peer_fed(&vec![BigUint::zero()], 1);
    assert!(matches!(err, SmcError::Crypto(_)));
}

/// Negation and negative scalars are modular inversions, so a ciphertext
/// that is no unit must be turned away before it reaches one — as the same
/// typed error the membership check always gave, on both framings, never a
/// panic. A fake Alice plants `0`, the DGK `n` and its square in a DGK bit
/// frame; a fake keyholder plants `n` in a dot-product and in a
/// multiplication frame whose honest multipliers are negative.
#[test]
fn non_unit_ciphertexts_are_typed_errors_before_any_inversion() {
    let kp = test_keypair();
    let n = kp.public.n().clone();
    let good = |m: u64| {
        let ct = kp.public.encrypt(&BigUint::from_u64(m), &mut rng(m));
        ct.unwrap().as_biguint().clone()
    };
    let dgk = kp.public.dgk().unwrap();
    let dgk_n = dgk.n().clone();
    let good_bit = |m: u64| dgk.encrypt(m, &mut rng(m)).unwrap();
    let refused = |what: &str, err: SmcError| {
        assert!(
            matches!(err, SmcError::Crypto(PaillierError::InvalidCiphertext)),
            "{what}: wanted an invalid-ciphertext error, got {err:?}"
        );
    };
    let ctx = ProtocolContext::new(8);
    let mut acct = SharingLedger::default();
    for batching in [false, true] {
        for packed in [false, true] {
            let backend = backend_of(&kp, batching, packed);
            // ℓ = 3 bits: n0 = 7. Two comparisons: one frame of two bit
            // groups batched, the first group alone otherwise.
            let domain = ComparisonDomain::new(0, 5);
            for bad in [BigUint::zero(), dgk_n.clone(), dgk_n.square()] {
                let groups = [vec![good_bit(1), bad, good_bit(0)], vec![good_bit(0); 3]];
                let (mut fake, mut honest) = duplex();
                let sent = if batching { &groups[..] } else { &groups[..1] };
                fake.send_batch(sent).unwrap();
                let err = backend
                    .compare_batch(
                        &mut honest,
                        Party::Bob,
                        &[5, 2],
                        CmpOp::Lt,
                        &domain,
                        &ctx,
                        &mut acct,
                    )
                    .unwrap_err();
                refused(
                    &format!("dgk bits, batching={batching}, packed={packed}"),
                    err,
                );
            }
        }

        let (mut fake, mut honest) = duplex();
        fake.send(&vec![good(3), n.clone(), good(4)]).unwrap();
        let rows = [vec![-1, -2, -3], vec![4, -5, 6]];
        let err = backend_of(&kp, batching, false)
            .dot_many_responder(&mut honest, &rows, &ctx, &mut acct)
            .unwrap_err();
        refused(&format!("dot frame, batching={batching}"), err);

        let (mut fake, mut honest) = duplex();
        let groups = [vec![good(3), n.clone()], vec![good(4), good(5)]];
        let sent = if batching { &groups[..] } else { &groups[..1] };
        fake.send_batch(sent).unwrap();
        let err = backend_of(&kp, batching, false)
            .mul_fold_peer(
                &mut honest,
                &[vec![-4, -5], vec![-6, 7]],
                &[0, 1],
                &ctx,
                &mut acct,
            )
            .unwrap_err();
        refused(&format!("multiplication frame, batching={batching}"), err);
    }
}

/// A dot call's reply is one run over every row of the call. A run one
/// word (packed) or one ciphertext (unpacked) long or short is a protocol
/// error at the querier, on both framings, before anything in it is
/// decrypted: the planted items are zeros, which decryption would refuse
/// as a crypto error.
#[test]
fn a_dot_run_a_word_long_or_short_is_refused_before_decryption() {
    let kp = Keypair::generate(256, &mut rng(46));
    let layout = SlotLayout::new(kp.public.bits(), 24).unwrap();
    let packing = ResponsePacking {
        layout,
        offset: BigUint::from_u64(1 << 20),
    };
    let (queries, rows) = (
        [vec![1, -2, 3], vec![4, 5, -6]],
        [3usize, layout.capacity()],
    );
    let ctx = ProtocolContext::new(9);
    let mut acct = SharingLedger::default();
    for batching in [false, true] {
        // Unbatched, the first query is a call of its own.
        let due = if batching { 3 + layout.capacity() } else { 3 };
        for (dot_packing, owed) in [(Some(packing.clone()), layout.words_for(due)), (None, due)] {
            for sent in [owed - 1, owed + 1] {
                let backend = PaillierBackend {
                    dot_packing: dot_packing.clone(),
                    ..backend_of(&kp, batching, dot_packing.is_some())
                };
                let (mut fake, mut honest) = duplex();
                fake.send_batch(&vec![BigUint::zero(); sent]).unwrap();
                let err = backend
                    .dot_queries_querier(
                        &mut honest,
                        &queries,
                        &rows,
                        |q| ctx.at(q as u64),
                        &mut acct,
                    )
                    .unwrap_err();
                let what = format!(
                    "{sent} items for {owed}, batching={batching}, packed={}",
                    dot_packing.is_some()
                );
                assert!(matches!(err, SmcError::Protocol(_)), "{what}: {err:?}");
            }
        }
    }
}

/// A DGK Paillier backend over one keypair in both roles (`packed` changes
/// no DGK byte).
fn backend_of(kp: &Keypair, batching: bool, packed: bool) -> PaillierBackend<'_> {
    PaillierBackend {
        my_keypair: kp,
        peer_pk: &kp.public,
        comparator: Comparator::Dgk,
        packed,
        batching,
        mul_packing: None,
        dot_packing: None,
        mul_mask_bound: BigUint::from_u64(1 << 10),
        dot_mask_bound: BigUint::from_u64(1 << 10),
    }
}

#[test]
fn truncated_yao_sequence_is_protocol_error() {
    let kp = test_keypair();
    let config = YaoConfig { n0: 8 };
    let (mut alice_side, mut bob_side) = duplex();
    // Fake "Alice": accept Bob's probe, answer with a too-short sequence.
    let handle = std::thread::spawn(move || {
        let _probe: BigUint = alice_side.recv().unwrap();
        let p = BigUint::from_u64(101);
        let seq = vec![BigUint::from_u64(5); 3]; // should be 8
        alice_side.send(&(p, seq)).unwrap();
        // Bob errors out before step 7; nothing else to do.
    });
    let err = yao_bob(
        &mut bob_side,
        &kp.public,
        4,
        &config,
        &ProtocolContext::new(2),
    )
    .unwrap_err();
    assert!(matches!(err, SmcError::Protocol(_)));
    handle.join().unwrap();
}

#[test]
fn degenerate_yao_modulus_is_protocol_error() {
    let kp = test_keypair();
    let config = YaoConfig { n0: 4 };
    let (mut alice_side, mut bob_side) = duplex();
    let handle = std::thread::spawn(move || {
        let _probe: BigUint = alice_side.recv().unwrap();
        let p = BigUint::one(); // degenerate modulus
        let seq = vec![BigUint::zero(); 4];
        alice_side.send(&(p, seq)).unwrap();
    });
    let err = yao_bob(
        &mut bob_side,
        &kp.public,
        2,
        &config,
        &ProtocolContext::new(3),
    )
    .unwrap_err();
    assert!(matches!(err, SmcError::Protocol(_)));
    handle.join().unwrap();
}

#[test]
fn peer_disconnect_mid_protocol_is_transport_error() {
    let kp = test_keypair();
    let domain = ComparisonDomain::symmetric(10);
    let (alice_side, mut bob_side) = duplex();
    drop(alice_side); // peer vanishes before the first message
    let err = compare_bob(
        Comparator::Ideal,
        &mut bob_side,
        &kp.public,
        &[3],
        CmpOp::Lt,
        &domain,
        |_| ProtocolContext::new(4),
    )
    .unwrap_err();
    assert!(matches!(err, SmcError::Transport(_)));
}

#[test]
fn wrong_typed_message_is_decode_error_not_panic() {
    // The peer expects groups of ciphertexts; send a bool payload.
    let err = multiplication_peer_fed(&true, 5);
    assert!(matches!(err, SmcError::Transport(_)));
}

#[test]
fn full_driver_surfaces_peer_garbage_as_error() {
    // A "peer" that answers the key exchange with nonsense: the real party
    // must return an error (never hang, never panic).
    let cfg = ProtocolConfig::new(
        DbscanParams {
            eps_sq: 4,
            min_pts: 2,
        },
        10,
    );
    let points = vec![Point::new(vec![0, 0])];
    let (mut honest, mut fake) = duplex();
    let handle = std::thread::spawn(move || {
        let _their_n: BigUint = fake.recv().unwrap();
        fake.send(&BigUint::from_u64(6)).unwrap(); // even, tiny "modulus"
                                                   // Keep the channel open so the honest side isn't just disconnected.
        std::thread::sleep(std::time::Duration::from_millis(50));
    });
    let err = Participant::new(cfg)
        .role(Party::Alice)
        .data(PartyData::Horizontal(points))
        .rng(rng(6))
        .run(&mut honest)
        .unwrap_err();
    assert!(matches!(err, CoreError::Smc(_)));
    handle.join().unwrap();
}

#[test]
fn mode_mismatch_between_protocols_is_detected() {
    // One side runs horizontal, the other vertical: handshake must catch
    // it, on both sides, naming the mode field.
    let cfg = ProtocolConfig::new(
        DbscanParams {
            eps_sq: 4,
            min_pts: 2,
        },
        10,
    );
    let points = vec![Point::new(vec![0, 0]), Point::new(vec![1, 1])];
    let result = ppdbscan::session::run_participants(
        Participant::new(cfg)
            .role(Party::Alice)
            .data(PartyData::Horizontal(points.clone()))
            .rng(rng(7)),
        Participant::new(cfg)
            .role(Party::Bob)
            .data(PartyData::Vertical(points))
            .rng(rng(8)),
    );
    match result.unwrap_err() {
        CoreError::HandshakeMismatch { field, .. } => assert_eq!(field, "mode"),
        other => panic!("wanted HandshakeMismatch on mode, got {other:?}"),
    }
}

/// Runs one side's half of a Paillier session's key exchange and `Hello`,
/// announcing `shape = (records, dimension)`.
fn fake_handshake(
    chan: &mut MemoryChannel,
    cfg: &ProtocolConfig,
    mode: Mode,
    shape: (usize, usize),
) {
    let kp = Keypair::generate(cfg.key_bits, &mut rng(99));
    setup::exchange_keys(chan, &kp, false).unwrap();
    chan.send(&Hello::for_session(cfg, mode, shape.0, shape.1))
        .unwrap();
    let _theirs: Hello = chan.recv().unwrap();
}

/// A peer that handshakes honestly for a grid-pruned lockstep session in
/// `role`, then publishes `table` as its band table. After that the honest
/// side must have hung up: the next read is a disconnect, not a protocol
/// message and not a hang.
fn hostile_band_peer(
    mut chan: MemoryChannel,
    cfg: ProtocolConfig,
    mode: Mode,
    shape: (usize, usize),
    table: Vec<Vec<i64>>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        fake_handshake(&mut chan, &cfg, mode, shape);
        chan.send(&table).unwrap();
        let _honest_table: Vec<Vec<i64>> = chan.recv().unwrap();
        assert!(
            chan.recv_bytes().is_err(),
            "the honest side must refuse the table, not carry on"
        );
    })
}

/// Band tables no honest peer can send: a short table, a ragged row (which
/// used to reach `CoarseGrid::candidates`' dimension assert and panic the
/// session thread), and a band near `i64::MAX` (which used to overflow the
/// adjacent-cell odometer). `coord_bound = 10`, band width 3.
fn hostile_tables(rows: usize, dim: usize) -> Vec<(&'static str, Vec<Vec<i64>>)> {
    let honest = vec![vec![0i64; dim]; rows];
    let mut short = honest.clone();
    short.pop();
    let mut ragged = honest.clone();
    ragged[1].push(0);
    let mut huge = honest.clone();
    huge[1][0] = i64::MAX - 1;
    let mut off_lattice = honest;
    off_lattice[0][0] = -5;
    vec![
        ("short", short),
        ("ragged", ragged),
        ("huge", huge),
        ("off-lattice", off_lattice),
    ]
}

fn grid_cfg() -> ProtocolConfig {
    ProtocolConfig::new(
        DbscanParams {
            eps_sq: 8,
            min_pts: 2,
        },
        10,
    )
    .with_pruning(Pruning::Grid { coarseness: 1 })
}

fn expect_band_refusal(name: &str, participant: Participant, mut honest: MemoryChannel) {
    match participant.run(&mut honest) {
        Err(CoreError::Mismatch(msg)) => assert!(msg.contains("band"), "{name}: {msg}"),
        other => panic!("{name}: wanted a typed band-table refusal, got {other:?}"),
    }
}

#[test]
fn hostile_band_table_is_refused_in_vertical_mode() {
    let attrs = vec![
        Point::new(vec![0]),
        Point::new(vec![1]),
        Point::new(vec![9]),
    ];
    for honest_role in [Party::Alice, Party::Bob] {
        for (what, table) in hostile_tables(attrs.len(), 2) {
            let (honest, fake) = duplex();
            // The fake peer advertises a 2-attribute slice, so the joined
            // dimension is 3 and every honest row would hold 2 bands.
            let peer = hostile_band_peer(fake, grid_cfg(), Mode::Vertical, (attrs.len(), 2), table);
            let participant = Participant::new(grid_cfg())
                .role(honest_role)
                .data(PartyData::Vertical(attrs.clone()))
                .seed(20);
            expect_band_refusal(&format!("{honest_role}/{what}"), participant, honest);
            peer.join().unwrap();
        }
    }
}

#[test]
fn hostile_band_table_is_refused_in_arbitrary_mode() {
    let values = vec![
        vec![Some(0), None],
        vec![None, Some(1)],
        vec![Some(9), Some(-9)],
    ];
    for honest_role in [Party::Alice, Party::Bob] {
        for (what, table) in hostile_tables(values.len(), 2) {
            let (honest, fake) = duplex();
            let peer =
                hostile_band_peer(fake, grid_cfg(), Mode::Arbitrary, (values.len(), 2), table);
            let participant = Participant::new(grid_cfg())
                .role(honest_role)
                .data(PartyData::Arbitrary(values.clone()))
                .seed(21);
            expect_band_refusal(&format!("{honest_role}/{what}"), participant, honest);
            peer.join().unwrap();
        }
    }
}

/// A vertical peer's `Hello` sets the width of its slice, which the honest
/// side's joined view then holds a cell of for every record. An oversized
/// announcement is a typed refusal in either role, made before that view
/// is allocated: one width just past the view's 2^23-cell cap (which the
/// configuration check alone accepts), and `u64::MAX` (the joined width
/// overflows).
#[test]
fn oversized_vertical_slice_is_refused_before_allocating() {
    let attrs = vec![
        Point::new(vec![0]),
        Point::new(vec![1]),
        Point::new(vec![9]),
    ];
    let cfg = grid_cfg();
    let past_cap = (1usize << 23) / attrs.len();
    for honest_role in [Party::Alice, Party::Bob] {
        for peer_dim in [past_cap, u64::MAX as usize] {
            let (mut honest, mut fake) = duplex();
            let n = attrs.len();
            let peer = std::thread::spawn(move || {
                fake_handshake(&mut fake, &cfg, Mode::Vertical, (n, peer_dim));
                assert!(
                    fake.recv_bytes().is_err(),
                    "the honest side must refuse the slice, not carry on"
                );
            });
            let result = Participant::new(cfg)
                .role(honest_role)
                .data(PartyData::Vertical(attrs.clone()))
                .seed(22)
                .run(&mut honest);
            drop(honest);
            match result {
                Err(CoreError::Config(msg)) => {
                    assert!(
                        msg.contains("joined view"),
                        "{honest_role}/{peer_dim}: {msg}"
                    )
                }
                other => panic!("{honest_role}/{peer_dim}: wanted a typed refusal, got {other:?}"),
            }
            peer.join().unwrap();
        }
    }
}

/// How a fake point-holding peer departs from the protocol.
#[derive(Clone)]
enum Attack {
    /// Answers the honest side's query cells with these candidate counts.
    Counts(Vec<u64>),
    /// Discloses these as the coarse cells of its one query.
    Cells(Vec<Vec<i64>>),
    /// Ships this flat run of ring elements in place of its fold frame of
    /// the first resolve chunk: the responder's masked points, or — after
    /// reading those — the querier's reply.
    Fold(Vec<u64>),
    /// As an enhanced querier that announced `.0` points: ships these frames
    /// of `(engage, k)` flags.
    Flags(usize, Vec<Vec<(bool, u64)>>),
    /// As an enhanced responder of two points: answers the first chunk's dot
    /// exchange with a row too many for its first query.
    DotRows,
    /// As an enhanced responder of two points: answers the dot exchange in
    /// shape, then the first step of the chunk's selections a share short.
    Verdicts,
}

impl Attack {
    /// How many points the fake peer's handshake announces.
    fn announced(&self) -> usize {
        match self {
            Attack::Flags(announced, _) => *announced,
            Attack::DotRows | Attack::Verdicts => 2,
            _ => 1,
        }
    }
}

/// The three honest points every case below runs on, all in band (0, 0).
fn honest_points() -> Vec<Point> {
    vec![
        Point::new(vec![0, 0]),
        Point::new(vec![1, 1]),
        Point::new(vec![2, 0]),
    ]
}

/// A peer that handshakes honestly in `role` as the holder of one point,
/// plays the protocol just far enough to reach its `attack`, and then must
/// find the honest side gone: the next read is a disconnect, not a
/// protocol message and not a hang.
///
/// Alice resolves first. A fake Bob therefore answers her query cells (with
/// zeros, unless the counts are the attack: she then has nothing to
/// compare) before it sends cells of its own; a fake Alice discloses a
/// far-away cell, which costs an honest Bob a zero count and no comparison,
/// before he sends his cells. The enhanced mode adds the `(engage, k)` flags
/// — a frame each where the configuration does not batch — none of which
/// engages unless the flags or what follows them are the attack.
fn hostile_point_peer(
    mut chan: MemoryChannel,
    cfg: ProtocolConfig,
    role: Party,
    mode: Mode,
    attack: Attack,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let kp = Keypair::generate(cfg.key_bits, &mut rng(99));
        setup::exchange_keys(&mut chan, &kp, false).unwrap();
        let hello = Hello::for_session(&cfg, mode, attack.announced(), 2);
        chan.send(&hello).unwrap();
        let _theirs: Hello = chan.recv().unwrap();
        if cfg.backend == BackendKind::Sharing {
            chan.send(&7u64).unwrap();
            let _contribution: u64 = chan.recv().unwrap();
        }
        let honest_n = honest_points().len();
        let not_engaging = (false, 0u64);
        match (role, attack) {
            (Party::Bob, Attack::Counts(counts)) => {
                let _cells: Vec<Vec<i64>> = chan.recv().unwrap();
                chan.send(&counts).unwrap();
            }
            (Party::Bob, Attack::Cells(cells)) => {
                let _cells: Vec<Vec<i64>> = chan.recv().unwrap();
                chan.send(&vec![0u64; honest_n]).unwrap();
                if mode == Mode::Enhanced {
                    for _ in 0..honest_n {
                        let _: (bool, u64) = chan.recv().unwrap();
                    }
                }
                chan.send(&cells).unwrap();
            }
            (Party::Alice, Attack::Cells(cells)) => chan.send(&cells).unwrap(),
            (Party::Alice, Attack::Counts(counts)) => {
                chan.send(&vec![vec![3i64, 3]]).unwrap();
                assert_eq!(chan.recv::<Vec<u64>>().unwrap(), [0]);
                if mode == Mode::Enhanced {
                    chan.send(&not_engaging).unwrap();
                }
                let _cells: Vec<Vec<i64>> = chan.recv().unwrap();
                chan.send(&counts).unwrap();
            }
            // The responder opens a chunk with every pair's masked point,
            // and the querier answers its one query's masked point and then
            // one element a pair.
            (Party::Bob, Attack::Fold(run)) => chan.send_batch(&run).unwrap(),
            (Party::Alice, Attack::Fold(run)) => {
                let opened: Vec<u64> = chan.recv_batch().unwrap();
                assert_eq!(opened.len(), 2 * honest_n, "a 2-d point per honest point");
                chan.send_batch(&run).unwrap();
            }
            (Party::Alice, Attack::Flags(_, frames)) => {
                if cfg.pruning != Pruning::Exhaustive {
                    chan.send(&vec![vec![3i64, 3]]).unwrap();
                    assert_eq!(chan.recv::<Vec<u64>>().unwrap(), [0]);
                }
                for frame in frames {
                    chan.send_batch(&frame).unwrap();
                }
            }
            // Every honest point engages with k = 1 of the two rows served.
            (Party::Bob, reply @ (Attack::DotRows | Attack::Verdicts)) => {
                let flags: Vec<(bool, u64)> = chan.recv_batch().unwrap();
                assert_eq!(flags, vec![(true, 1); honest_n]);
                let queries: Vec<Vec<u64>> = chan.recv_batch().unwrap();
                assert_eq!(queries.len(), honest_n, "one masked vector per test");
                let row = (vec![0u64; 4], 0u64);
                let mut replies = vec![vec![row.clone(); 2]; honest_n];
                if matches!(reply, Attack::DotRows) {
                    replies[0].push(row);
                }
                chan.send_batch(&replies).unwrap();
                if matches!(reply, Attack::Verdicts) {
                    let opened: Vec<u64> = chan.recv_batch().unwrap();
                    assert_eq!(opened.len(), honest_n, "step 0 of every scan");
                    chan.send_batch(&opened[1..]).unwrap();
                }
            }
            (Party::Bob, Attack::Flags(..))
            | (Party::Alice, Attack::DotRows | Attack::Verdicts) => {
                unreachable!("not an attack of that role")
            }
        }
        assert!(
            chan.recv_bytes().is_err(),
            "the honest side must refuse the frame, not carry on"
        );
    })
}

/// Runs the honest half of `mode` in `honest_role` against a fake peer
/// mounting `attack`, and returns the error the honest half must end in.
fn refusal(cfg: ProtocolConfig, mode: Mode, honest_role: Party, attack: Attack) -> CoreError {
    let (honest, fake) = duplex();
    let peer = hostile_point_peer(fake, cfg, honest_role.peer(), mode, attack);
    // A mesh of two: the lower id takes Alice's part.
    let (my_id, peer_id) = match honest_role {
        Party::Alice => (0, 1),
        Party::Bob => (1, 0),
    };
    let mut mesh = [(peer_id, honest)];
    let participant = Participant::new(cfg).role(honest_role).seed(30);
    let result = match mode {
        Mode::Horizontal => participant
            .data(PartyData::Horizontal(honest_points()))
            .run(&mut mesh[0].1),
        Mode::Enhanced => participant
            .data(PartyData::Enhanced(honest_points()))
            .run(&mut mesh[0].1),
        Mode::Multiparty => participant
            .data(PartyData::Multiparty(honest_points()))
            .run_mesh(&mut mesh, my_id, 2),
        other => panic!("{other} holds no points"),
    };
    // Hanging up is how the fake peer learns it was refused.
    drop(mesh);
    peer.join().unwrap();
    result.expect_err("the session must not survive the attack")
}

const POINT_HOLDING: [Mode; 3] = [Mode::Horizontal, Mode::Enhanced, Mode::Multiparty];

/// A mesh node's peer ids must be exactly the other parties' ids: a
/// duplicated id, the node's own id or one out of range is refused as a
/// typed config error before a key is generated or a byte sent (such a set
/// used to reach a serve phase with no channel and panic the node).
#[test]
fn a_bad_peer_id_set_is_refused_before_keygen() {
    let cfg = ProtocolConfig::new(grid_cfg().params, 10);
    let sets = [
        ("duplicated", [1, 1]),
        ("own id", [0, 2]),
        ("out of range", [1, 3]),
    ];
    for (what, ids) in sets {
        // The far ends hang up at once, so a node past the check fails on
        // its first exchange instead of waiting.
        let mut peers: Vec<(usize, MemoryChannel)> = ids.map(|id| (id, duplex().0)).into();
        let err = Participant::new(cfg)
            .data(PartyData::Multiparty(honest_points()))
            .seed(30)
            .run_mesh(&mut peers, 0, 3)
            .unwrap_err();
        assert!(matches!(err, CoreError::Config(_)), "{what}: {err:?}");
        for (id, chan) in &peers {
            assert_eq!(chan.metrics(), Default::default(), "{what}: peer {id}");
        }
    }
}

/// Candidate counts are peer-controlled and size the comparison buffers: a
/// frame must answer exactly the cells it follows, and no count may exceed
/// the one record the peer's handshake announced.
#[test]
fn hostile_candidate_counts_are_refused_in_the_point_holding_modes() {
    let attacks = [
        ("short", vec![0, 0]),
        ("long", vec![0, 0, 0, 0]),
        ("over the handshake's count", vec![0, 2, 0]),
        ("allocation bait", vec![u64::MAX, 0, 0]),
    ];
    for mode in POINT_HOLDING {
        for honest_role in [Party::Alice, Party::Bob] {
            for (what, counts) in &attacks {
                let name = format!("{mode}/{honest_role}/{what}");
                match refusal(
                    grid_cfg(),
                    mode,
                    honest_role,
                    Attack::Counts(counts.clone()),
                ) {
                    CoreError::Mismatch(msg) => assert!(msg.contains("candidate"), "{name}: {msg}"),
                    other => panic!("{name}: wanted a typed refusal, got {other:?}"),
                }
            }
        }
    }
}

/// Query cells are peer-controlled and index the responder's coarse grid: a
/// short cell used to reach `CoarseGrid::candidates_with`'s dimension
/// assert and panic the session thread, and a band near `i64::MIN`/`MAX`
/// to overflow its adjacent-band arithmetic. `coord_bound = 10`, band
/// width 3: legal bands run −4..=4.
#[test]
fn hostile_query_cells_are_refused_in_the_point_holding_modes() {
    let attacks = [
        ("no cell", vec![]),
        ("a cell too many", vec![vec![0, 0], vec![0, 0]]),
        ("short cell", vec![vec![0]]),
        ("long cell", vec![vec![0, 0, 0]]),
        ("overflow bait, high", vec![vec![0, i64::MAX]]),
        ("overflow bait, low", vec![vec![i64::MIN, 0]]),
        ("off the lattice", vec![vec![0, -5]]),
    ];
    for mode in POINT_HOLDING {
        for honest_role in [Party::Alice, Party::Bob] {
            for (what, cells) in &attacks {
                let name = format!("{mode}/{honest_role}/{what}");
                match refusal(grid_cfg(), mode, honest_role, Attack::Cells(cells.clone())) {
                    CoreError::Mismatch(msg) => assert!(msg.contains("band"), "{name}: {msg}"),
                    other => panic!("{name}: wanted a typed refusal, got {other:?}"),
                }
            }
        }
    }
}

/// A resolve chunk's fold frames are flat runs whose lengths both sides
/// derive: the responder's masked points, two elements for each of the three
/// pairs of the querier's one query, and the querier's reply, her masked
/// point once and then one element a pair. A peer that frames another
/// length — a pair short, or the pairs or queries of served counts it made
/// up — is refused by whichever side reads the frame.
#[test]
fn wrong_arity_resolve_chunk_is_refused_on_both_sides() {
    let cfg = ProtocolConfig::new(grid_cfg().params, 10)
        .with_backend(BackendKind::Sharing)
        .with_batching(true);
    let cases = [
        (
            Party::Alice,
            vec![0; 2],
            "expected 6 masked elements for 3 pairs, got 2",
        ),
        (
            Party::Alice,
            vec![0; 4],
            "expected 6 masked elements for 3 pairs, got 4",
        ),
        (
            Party::Bob,
            vec![0; 3],
            "expected 5 reply elements for 1 queries and 3 pairs, got 3",
        ),
        (
            Party::Bob,
            vec![0; 7],
            "expected 5 reply elements for 1 queries and 3 pairs, got 7",
        ),
    ];
    for mode in [Mode::Horizontal, Mode::Multiparty] {
        for (honest_role, run, want) in &cases {
            let name = format!("{mode}/{honest_role}/{} elements", run.len());
            match refusal(cfg, mode, *honest_role, Attack::Fold(run.clone())) {
                CoreError::Smc(SmcError::Protocol(msg)) => {
                    assert!(msg.contains(want), "{name}: {msg}")
                }
                other => panic!("{name}: wanted a typed refusal, got {other:?}"),
            }
        }
    }
}

/// Since wire v9 an enhanced direction opens with every `(engage, k)` flag
/// and then spends frames per step of a chunk. The flags are peer-controlled
/// and size the selections, so the responder holds them to the handshake —
/// as many as announced, at most 1,024 a frame, an engaged rank within the
/// rows the test is served — and the querier holds every reply slice to the
/// arity both sides derived. Each violation is a typed error on the side
/// that reads it and a disconnect on the other.
#[test]
fn hostile_enhanced_flags_and_replies_are_refused() {
    let sharing = |cfg: ProtocolConfig| cfg.with_backend(BackendKind::Sharing).with_batching(true);
    let exhaustive = sharing(ProtocolConfig::new(grid_cfg().params, 10));
    let idle = (false, 0u64);
    // An honest Bob serves all three of his points to every query when
    // exhaustive, and none to the far-away cell when pruning.
    let flags = [
        (
            "a flag too many",
            exhaustive,
            1,
            vec![vec![idle; 2]],
            "2 tests with 1 due",
        ),
        (
            "an empty frame",
            exhaustive,
            1,
            vec![vec![]],
            "0 tests with 1 due",
        ),
        (
            "a frame over 1,024",
            exhaustive,
            2000,
            vec![vec![idle; 1025]],
            "1025 tests with 1024 due",
        ),
        (
            "rank zero",
            exhaustive,
            1,
            vec![vec![(true, 0)]],
            "k = 0 for 3 served",
        ),
        (
            "rank over the served",
            exhaustive,
            1,
            vec![vec![(true, 4)]],
            "k = 4 for 3 served",
        ),
        (
            "nothing served",
            sharing(grid_cfg()),
            1,
            vec![vec![(true, 1)]],
            "k = 1 for 0 served",
        ),
    ];
    let mut engaging = exhaustive;
    engaging.params.min_pts = 4; // three own neighbours: every honest test asks k = 1
    let cases = flags
        .into_iter()
        .map(|(name, cfg, n, frames, want)| (name, cfg, Party::Bob, Attack::Flags(n, frames), want))
        .chain([
            (
                "a dot row too many",
                engaging,
                Party::Alice,
                Attack::DotRows,
                "expected 2 rows, got 3",
            ),
            (
                "a verdict share short",
                engaging,
                Party::Alice,
                Attack::Verdicts,
                "expected 3 shares, got 2",
            ),
        ]);
    for (name, cfg, honest_role, attack, want) in cases {
        match refusal(cfg, Mode::Enhanced, honest_role, attack) {
            CoreError::Smc(SmcError::Protocol(msg)) => assert!(msg.contains(want), "{name}: {msg}"),
            other => panic!("{name}: wanted a typed refusal, got {other:?}"),
        }
    }
}

/// A fake Alice that handshakes honestly for `mode` as the holder of
/// `shape = (records, dim)`, then plays the multiplication stage of the
/// first resolve chunk by the book — her one query served `pairs` points,
/// under the context path an honest Alice would walk — with attribute values
/// no lattice holds: `2^61` each, so that every inner product with a point
/// off the origin reaches `2^62` and doubling it leaves `i64`. After that
/// the honest Bob must be gone: the next read is a disconnect.
fn hostile_inner_product_alice(
    mut chan: MemoryChannel,
    cfg: ProtocolConfig,
    mode: Mode,
    shape: (usize, usize),
    path: ProtocolContext,
    pairs: usize,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let kp = Keypair::generate(cfg.key_bits, &mut rng(99));
        let bob_pk = setup::exchange_keys(&mut chan, &kp, false).unwrap();
        chan.send(&Hello::for_session(&cfg, mode, shape.0, shape.1))
            .unwrap();
        let _theirs: Hello = chan.recv().unwrap();
        let backend = if cfg.backend == BackendKind::Sharing {
            chan.send(&7u64).unwrap();
            AnyBackend::Sharing(SharingBackend {
                tape: DealerTape::from_contributions(7, chan.recv().unwrap()),
                batching: cfg.batching,
                dot_mask_bound: clamp_sharing_bound(&BigUint::from_u64(1 << 20)),
            })
        } else {
            AnyBackend::Paillier(PaillierBackend {
                my_keypair: &kp,
                peer_pk: &bob_pk,
                comparator: cfg.comparator,
                packed: false,
                batching: cfg.batching,
                mul_packing: None,
                dot_packing: None,
                mul_mask_bound: cfg.mul_mask_bound(),
                dot_mask_bound: BigUint::from_u64(1 << 20),
            })
        };
        // One query served every pair, as an honest querier holds it.
        let query = [vec![1i64 << 61; 2]];
        let records: Vec<u64> = (0..pairs as u64).collect();
        let mut acct = SharingLedger::default();
        // Batched, the honest side answers the whole stage before it looks
        // at a product; one pair at a time it hangs up after the first.
        let _ =
            backend.mul_fold_queries_peer(&mut chan, &query, &[pairs], &records, &path, &mut acct);
        assert!(
            chan.recv_bytes().is_err(),
            "the honest side must refuse the products, not compare them"
        );
    })
}

/// The keyholder's stage-2 operand adds twice whatever the peer's
/// multiplication frames decrypt (or open) to: unchecked, one frame used to
/// panic a debug build and wrap a release build's operand back into range.
#[test]
fn hostile_inner_products_are_domain_violations_on_both_backends() {
    let base = ProtocolConfig::new(grid_cfg().params, 10);
    let arbitrary_bob = vec![vec![None, None], vec![Some(1), Some(1)]];
    for backend in [BackendKind::Paillier, BackendKind::Sharing] {
        for batching in [false, true] {
            let mut cfg = base.with_backend(backend).with_batching(batching);
            cfg.key_bits = 128;
            let root = ProtocolContext::new(0);
            let cases = [
                (
                    Mode::Horizontal,
                    (1, 2),
                    root.narrow("mesh")
                        .at(0)
                        .at(1)
                        .narrow("hdp")
                        .narrow("resolve")
                        .at(0),
                    honest_points().len(),
                    PartyData::Horizontal(honest_points()),
                ),
                (
                    Mode::Arbitrary,
                    (2, 2),
                    root.narrow("resolve").at(0),
                    1,
                    PartyData::Arbitrary(arbitrary_bob.clone()),
                ),
            ];
            for (mode, shape, path, pairs, data) in cases {
                let name = format!("{mode}/{}/batching={batching}", backend.name());
                let (mut honest, fake) = duplex();
                let peer = hostile_inner_product_alice(fake, cfg, mode, shape, path, pairs);
                let result = Participant::new(cfg)
                    .role(Party::Bob)
                    .data(data)
                    .seed(30)
                    .run(&mut honest);
                drop(honest);
                peer.join().unwrap();
                match result {
                    Err(CoreError::Smc(SmcError::DomainViolation { value, .. })) => {
                        assert_eq!(value, 1 << 62, "{name}: the refused inner product")
                    }
                    other => panic!("{name}: wanted a domain violation, got {other:?}"),
                }
            }
        }
    }
}

/// A frame's payload, sent as is.
struct Raw(Vec<u8>);

impl ppds_transport::WireEncode for Raw {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0);
    }
}

/// A received DGK public key is checked before anything is encrypted under
/// it: a truncated key frame, `g = 1`, a `u` other than 193 or a key of
/// another size than the session agreed ends the session with a typed
/// error on the honest Alice's side. The hostile Bob sends the bad key
/// frame and a `Hello`, reads her flight, and then reads a disconnect, not
/// a protocol message.
#[test]
fn hostile_dgk_keys_are_refused() {
    let mut cfg = ProtocolConfig::new_with_dgk(grid_cfg().params, 10);
    cfg.key_bits = 128;
    let kp = Keypair::generate(128, &mut rng(99));
    let frame = |dgk| {
        let n = kp.public.n().clone();
        ppds_transport::WireEncode::encode_to_vec(&setup::KeyFrame { n, dgk })
    };
    let ((n, g, h), (u, t)) = kp.public.dgk().unwrap().to_parts();
    let mut truncated = frame(Some(((n.clone(), g.clone(), h.clone()), (u, t))));
    truncated.truncate(truncated.len() - 9);
    let other_size = Keypair::generate(256, &mut rng(98));
    let cases = [
        ("truncated", truncated),
        (
            "g = 1",
            frame(Some(((n.clone(), BigUint::one(), h.clone()), (u, t)))),
        ),
        ("u = 191", frame(Some(((n, g, h), (191, t))))),
        (
            "256-bit key",
            frame(other_size.public.dgk().map(|key| key.to_parts())),
        ),
    ];
    for (what, bad) in cases {
        let (mut honest, mut fake) = duplex();
        let peer = std::thread::spawn(move || {
            // Its whole flight first, as a v18 peer sends it: the honest
            // side may hang up before reading all of it.
            let points = honest_points().len();
            let _ = fake.send(&Raw(bad));
            let _ = fake.send(&Hello::for_session(&cfg, Mode::Enhanced, points, 2));
            let _theirs: setup::KeyFrame = fake.recv().unwrap();
            let _theirs: Hello = fake.recv().unwrap();
            assert!(fake.recv_bytes().is_err(), "{what}: no protocol message");
        });
        let result = Participant::new(cfg)
            .role(Party::Alice)
            .data(PartyData::Enhanced(honest_points()))
            .seed(31)
            .run(&mut honest);
        drop(honest);
        peer.join().unwrap();
        match result {
            Err(CoreError::Smc(SmcError::Transport(_))) if what == "truncated" => {}
            Err(CoreError::Smc(SmcError::Crypto(PaillierError::InvalidPublicKey(_)))) => {}
            Err(CoreError::HandshakeMismatch {
                field: "dgk_key_bits",
                ..
            }) => {}
            other => panic!("{what}: wanted a typed key refusal, got {other:?}"),
        }
    }
}

/// Bob's DGK reply is checked cell by cell before Alice's zero test: a
/// zero cell, a cell at or above the DGK `n`, or a vector of the wrong
/// length is a typed error on her side, and his wait for her verdict ends
/// in a disconnect.
#[test]
fn hostile_dgk_cells_are_refused() {
    let kp = test_keypair();
    let dgk = kp.public.dgk().unwrap();
    let n = dgk.n().clone();
    let cell = |m: u64| dgk.encrypt(m, &mut rng(m)).unwrap();
    let domain = ComparisonDomain::new(0, 5); // ℓ = 3 bits
    let replies = [
        ("zero cell", vec![cell(1), BigUint::zero(), cell(2)]),
        ("cell = n", vec![cell(1), n.clone(), cell(2)]),
        ("cell above n", vec![cell(1), &n + &BigUint::one(), cell(2)]),
        ("two cells", vec![cell(1), cell(2)]),
        ("four cells", vec![cell(1), cell(2), cell(0), cell(3)]),
    ];
    for (what, reply) in replies {
        let (mut honest, mut fake) = duplex();
        let peer = std::thread::spawn(move || {
            let _bits: Vec<Vec<BigUint>> = fake.recv_batch().unwrap();
            fake.send_batch(&[reply]).unwrap();
            assert!(fake.recv_batch::<bool>().is_err(), "{what}: no verdict");
        });
        let err = backend_of(&kp, true, false)
            .compare_batch(
                &mut honest,
                Party::Alice,
                &[3],
                CmpOp::Lt,
                &domain,
                &ProtocolContext::new(9),
                &mut SharingLedger::default(),
            )
            .unwrap_err();
        drop(honest);
        peer.join().unwrap();
        match (what, err) {
            ("two cells" | "four cells", SmcError::Protocol(_)) => {}
            (_, SmcError::Crypto(PaillierError::InvalidCiphertext)) if !what.ends_with("cells") => {
            }
            (_, other) => panic!("{what}: wanted a typed cell refusal, got {other:?}"),
        }
    }
}
