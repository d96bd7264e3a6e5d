//! Deployment and accounting tests: the protocols over real TCP sockets,
//! and the communication-complexity shape checks behind experiments E1/E2.

mod common;

use common::{rng, run_enhanced_pair, run_horizontal_pair, run_vertical_pair, HopClock};
use ppdbscan::config::ProtocolConfig;
use ppdbscan::session::{
    run_mesh_local, run_participants, Participant, PartyData, SessionOutcome, WIRE_VERSION,
};
use ppdbscan::{ArbitraryPartition, PartyOutput, VerticalPartition};
use ppds_dbscan::datagen::{split_alternating, standard_blobs};
use ppds_dbscan::{dbscan, dbscan_with_external_density, DbscanParams, Point, Quantizer};
use ppds_smc::Party;
use ppds_transport::tcp::TcpChannel;
use std::net::TcpListener;

fn cfg(eps_sq: u64, min_pts: usize, bound: i64) -> ProtocolConfig {
    ProtocolConfig::new(DbscanParams { eps_sq, min_pts }, bound)
}

/// Runs one participant over a real TCP socket: the accepting side listens
/// on an ephemeral port, the connecting side dials it. Reads and writes
/// time out after 10 s, so a session that deadlocks fails instead of
/// hanging the suite.
fn over_tcp(
    listener: Option<TcpListener>,
    addr: std::net::SocketAddr,
    participant: Participant,
) -> SessionOutcome {
    let mut chan = match listener {
        Some(listener) => TcpChannel::accept(&listener).unwrap(),
        None => TcpChannel::connect(addr).unwrap(),
    };
    chan.set_timeout(Some(std::time::Duration::from_secs(10)))
        .unwrap();
    participant.run(&mut chan).unwrap()
}

#[test]
fn horizontal_protocol_over_real_tcp_sockets() {
    let alice = vec![
        Point::new(vec![0, 0]),
        Point::new(vec![1, 1]),
        Point::new(vec![10, 10]),
    ];
    let bob = vec![Point::new(vec![0, 1]), Point::new(vec![11, 10])];
    let c = cfg(4, 3, 15);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let alice_participant = Participant::new(c)
        .role(Party::Alice)
        .data(PartyData::Horizontal(alice.clone()))
        .rng(rng(1));
    let alice_thread =
        std::thread::spawn(move || over_tcp(Some(listener), addr, alice_participant));
    let b_outcome = over_tcp(
        None,
        addr,
        Participant::new(c)
            .role(Party::Bob)
            .data(PartyData::Horizontal(bob.clone()))
            .rng(rng(2)),
    );
    let a_outcome = alice_thread.join().unwrap();
    let (a_out, b_out) = (&a_outcome.output, &b_outcome.output);

    assert_eq!(
        a_out.clustering,
        dbscan_with_external_density(&alice, &bob, c.params)
    );
    assert_eq!(
        b_out.clustering,
        dbscan_with_external_density(&bob, &alice, c.params)
    );
    // The negotiated metadata survives the real socket unchanged.
    assert_eq!(a_outcome.meta.wire_version, WIRE_VERSION);
    assert_eq!(a_outcome.meta.peers[0].n, bob.len());
    assert_eq!(b_outcome.meta.peers[0].n, alice.len());
    // TCP and in-memory transports must charge identical traffic: with the
    // same seeds the transcript is identical, so the full MetricsSnapshot
    // (bytes and messages, both directions) must match exactly.
    let (mem_a, mem_b) = run_horizontal_pair(&c, &alice, &bob, rng(1), rng(2)).unwrap();
    assert_eq!(a_out.traffic, mem_a.traffic);
    assert_eq!(b_out.traffic, mem_b.traffic);
    assert_eq!(a_out.traffic.bytes_sent, mem_b.traffic.bytes_received);
}

#[test]
fn vertical_protocol_over_real_tcp_sockets() {
    let records = vec![
        Point::new(vec![0, 0]),
        Point::new(vec![1, 1]),
        Point::new(vec![9, 9]),
        Point::new(vec![1, 0]),
    ];
    let partition = VerticalPartition::split(&records, 1);
    let c = cfg(2, 2, 10);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let alice_participant = Participant::new(c)
        .role(Party::Alice)
        .data(PartyData::Vertical(partition.alice.clone()))
        .rng(rng(3));
    let alice_thread =
        std::thread::spawn(move || over_tcp(Some(listener), addr, alice_participant));
    let b_out = over_tcp(
        None,
        addr,
        Participant::new(c)
            .role(Party::Bob)
            .data(PartyData::Vertical(partition.bob.clone()))
            .rng(rng(4)),
    )
    .output;
    let a_out = alice_thread.join().unwrap().output;

    let reference = dbscan(&records, c.params);
    assert_eq!(a_out.clustering, reference);
    assert_eq!(b_out.clustering, reference);
}

#[test]
fn batched_vertical_protocol_over_real_tcp_sockets() {
    // The round-batched pipeline on its target deployment path: real
    // sockets. Same labels as the in-memory batched run, byte-identical
    // traffic snapshot (including the new rounds counters), and the round
    // collapse visible end to end.
    let records: Vec<Point> = (0..10)
        .map(|i| Point::new(vec![(i % 5) * 2, i / 5]))
        .collect();
    let partition = VerticalPartition::split(&records, 1);
    let c = cfg(2, 2, 10).with_batching(true);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let alice_participant = Participant::new(c)
        .role(Party::Alice)
        .data(PartyData::Vertical(partition.alice.clone()))
        .rng(rng(30));
    let alice_thread =
        std::thread::spawn(move || over_tcp(Some(listener), addr, alice_participant));
    let b_outcome = over_tcp(
        None,
        addr,
        Participant::new(c)
            .role(Party::Bob)
            .data(PartyData::Vertical(partition.bob.clone()))
            .rng(rng(31)),
    );
    let a_outcome = alice_thread.join().unwrap();
    assert!(a_outcome.meta.batching && b_outcome.meta.batching);
    let (a_out, b_out) = (a_outcome.output, b_outcome.output);

    assert_eq!(a_out.clustering, dbscan(&records, c.params));
    let (mem_a, mem_b) = run_vertical_pair(&c, &partition, rng(30), rng(31)).unwrap();
    assert_eq!(a_out.traffic, mem_a.traffic, "TCP batch accounting parity");
    assert_eq!(b_out.traffic, mem_b.traffic);
    assert!(
        a_out.traffic.total_messages() >= 3 * a_out.traffic.total_rounds(),
        "batched frames must carry many logical messages ({} msgs, {} rounds)",
        a_out.traffic.total_messages(),
        a_out.traffic.total_rounds()
    );
}

/// Nine blob points and the 128-bit-key configuration the whole-matrix TCP
/// tests below run on (four modes and a mesh, two transports each: quick).
fn tcp_matrix_fixture(seed: u64) -> (Vec<Point>, ProtocolConfig) {
    let (records, _) = standard_blobs(&mut rng(seed), 3, 3, 2, Quantizer::new(1.0, 60));
    let mut c = cfg(81, 3, 60);
    c.key_bits = 128;
    (records, c)
}

/// Everything a party takes away: labels, leakage, Yao ledger, and the
/// complete traffic snapshot.
fn assert_same_output(name: &str, want: &PartyOutput, got: &PartyOutput) {
    assert_eq!(want.clustering, got.clustering, "{name}: labels");
    assert_eq!(want.leakage, got.leakage, "{name}: LeakageLog");
    assert_eq!(want.yao, got.yao, "{name}: YaoLedger");
    assert_eq!(want.traffic, got.traffic, "{name}: MetricsSnapshot");
}

#[test]
fn every_two_party_mode_runs_over_tcp_with_identical_outputs() {
    let (records, c) = tcp_matrix_fixture(404);
    let (first, second) = split_alternating(&records);
    let vertical = VerticalPartition::split(&records, 1);
    let arbitrary = ArbitraryPartition::random(&mut rng(31 ^ 0xA5A5), &records);
    let views = [
        (
            PartyData::Horizontal(first.clone()),
            PartyData::Horizontal(second.clone()),
        ),
        (PartyData::Enhanced(first), PartyData::Enhanced(second)),
        (
            PartyData::Vertical(vertical.alice),
            PartyData::Vertical(vertical.bob),
        ),
        (
            PartyData::Arbitrary(arbitrary.alice_values),
            PartyData::Arbitrary(arbitrary.bob_values),
        ),
    ];
    for (data_a, data_b) in views {
        let mode = data_a.mode();
        let alice = || {
            Participant::new(c)
                .role(Party::Alice)
                .data(data_a.clone())
                .seed(31)
        };
        let bob = || {
            Participant::new(c)
                .role(Party::Bob)
                .data(data_b.clone())
                .seed(32)
        };
        let (mem_a, mem_b) = run_participants(alice(), bob()).unwrap();
        let (alice, bob) = (alice(), bob());

        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let alice_thread = std::thread::spawn(move || over_tcp(Some(listener), addr, alice));
        let tcp_b = over_tcp(None, addr, bob);
        let tcp_a = alice_thread.join().unwrap();
        assert_same_output(&format!("{mode}/tcp/alice"), &mem_a.output, &tcp_a.output);
        assert_same_output(&format!("{mode}/tcp/bob"), &mem_b.output, &tcp_b.output);
        assert_eq!(tcp_a.meta, mem_a.meta, "{mode}: negotiated metadata");
    }
}

#[test]
fn multiparty_runs_over_tcp_mesh_with_identical_outputs() {
    let (all, c) = tcp_matrix_fixture(606);
    let parties: Vec<Vec<Point>> = (0..3)
        .map(|p| all.iter().skip(p).step_by(3).cloned().collect())
        .collect();
    let seed = 13u64;
    let reference = run_mesh_local(&c, &parties, seed).unwrap();

    // Build a real TCP full mesh: one socket pair per party pair, the
    // lower id accepting.
    let k = parties.len();
    let mut mesh: Vec<Vec<(usize, TcpChannel)>> = (0..k).map(|_| Vec::new()).collect();
    for i in 0..k {
        for j in i + 1..k {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let accept = std::thread::spawn(move || TcpChannel::accept(&listener).unwrap());
            let connect = TcpChannel::connect(addr).unwrap();
            mesh[i].push((j, accept.join().unwrap()));
            mesh[j].push((i, connect));
        }
    }

    let mut handles = Vec::new();
    for (my_id, (mut peers, points)) in mesh.drain(..).zip(parties.iter()).enumerate() {
        let participant = Participant::new(c)
            .data(PartyData::Multiparty(points.clone()))
            .seed(seed.wrapping_add(my_id as u64));
        handles.push(std::thread::spawn(move || {
            participant.run_mesh(&mut peers, my_id, 3).unwrap()
        }));
    }
    for (i, handle) in handles.into_iter().enumerate() {
        let outcome = handle.join().unwrap();
        let name = format!("multiparty/tcp/party{i}");
        assert_same_output(&name, &reference[i].output, &outcome.output);
    }
}

/// §4.2.2: horizontal communication is O(c1·m·l(n−l) + c2·n0·l(n−l)),
/// "every point queried once". Resolving each own point's density exactly
/// once makes that the exact count: l(n−l) comparisons per direction, and
/// each party's ledger holds both directions (own queries and the serves
/// of the peer's) — whatever the clustering does with the answers.
#[test]
fn horizontal_comparison_count_is_queries_times_peer_size() {
    let alice: Vec<Point> = (0..5).map(|i| Point::new(vec![i * 20, 0])).collect();
    let bob: Vec<Point> = (0..7).map(|i| Point::new(vec![i * 20, 50])).collect();
    // A second geometry of the same sizes in which clusters form (and a
    // noise point is absorbed and re-tested): the count must not notice.
    let huddled: Vec<Point> = (0..5).map(|i| Point::new(vec![i * 2 - 3, 0])).collect();
    let c = cfg(4, 3, 200);
    let (l, n) = (alice.len() as u64, (alice.len() + bob.len()) as u64);
    for alice in [&alice, &huddled] {
        let (a_out, b_out) = run_horizontal_pair(&c, alice, &bob, rng(5), rng(6)).unwrap();
        assert_eq!(
            a_out.clustering,
            dbscan_with_external_density(alice, &bob, c.params)
        );
        assert_eq!(a_out.leakage.count_kind("neighbor_count") as u64, l);
        assert_eq!(b_out.leakage.count_kind("neighbor_count") as u64, n - l);
        assert_eq!(a_out.yao.comparisons, 2 * l * (n - l));
        assert_eq!(b_out.yao.comparisons, 2 * l * (n - l));
    }
}

/// The acceptance test of the resolve phase: a batched horizontal session
/// spends wire rounds per *chunk of 1,024 pairs*, not per core-point test.
/// 100 + 100 points are 10,000 cross pairs a direction — ten chunks of ten
/// whole queries — so the sharing backend's four frames a chunk plus six of
/// handshake make 86 frames, where one exchange per test made over 1,000.
/// With grid pruning the same session needs a chunk or two a direction
/// plus one cell frame and one count frame each way.
#[test]
fn horizontal_resolve_spends_rounds_per_chunk_not_per_query() {
    use ppds_dbscan::datagen::{split_alternating, uniform_points};
    use ppds_dbscan::Pruning;
    use ppds_smc::BackendKind;
    let points = uniform_points(&mut rng(0x86), 200, 2, 28);
    let (alice, bob) = split_alternating(&points);
    let c = cfg(9, 4, 28)
        .with_backend(BackendKind::Sharing)
        .with_batching(true);
    let reference = dbscan_with_external_density(&alice, &bob, c.params);
    assert!(reference.num_clusters > 0 && reference.noise_count() > 0);

    let (a_out, b_out) = run_horizontal_pair(&c, &alice, &bob, rng(1), rng(2)).unwrap();
    assert_eq!(a_out.clustering, reference);
    assert_eq!(a_out.yao.comparisons, 20_000);
    assert_eq!(b_out.yao.comparisons, 20_000);
    let frames = a_out.traffic.total_rounds();
    println!("exhaustive: {frames} frames");
    assert!(frames <= 110, "exhaustive: {frames} frames, expected 86");

    let pruned = c.with_pruning(Pruning::Grid { coarseness: 1 });
    let (a_out, _) = run_horizontal_pair(&pruned, &alice, &bob, rng(1), rng(2)).unwrap();
    assert_eq!(a_out.clustering, reference);
    assert!(a_out.yao.comparisons < 4_000, "{}", a_out.yao.comparisons);
    let frames = a_out.traffic.total_rounds();
    println!("grid/1: {frames} frames");
    assert!(frames <= 60, "grid/1: {frames} frames");
}

/// One side of a horizontal session, seeded as `run_horizontal_pair` seeds
/// it (Alice 1, Bob 2).
fn horizontal_party(c: &ProtocolConfig, role: Party, points: &[Point]) -> Participant {
    let seed = match role {
        Party::Alice => 1,
        Party::Bob => 2,
    };
    Participant::new(*c)
        .role(role)
        .data(PartyData::Horizontal(points.to_vec()))
        .rng(rng(seed))
}

/// Runs one horizontal session in memory over a [`HopClock`] pair: Alice's
/// and Bob's hops, and both outputs.
fn clocked(
    c: &ProtocolConfig,
    alice: &[Point],
    bob: &[Point],
) -> ((u64, u64), PartyOutput, PartyOutput) {
    let (a, b) = ppds_transport::duplex();
    let (mut a, mut b) = HopClock::pair(a, b);
    let alice = horizontal_party(c, Party::Alice, alice);
    let bob = horizontal_party(c, Party::Bob, bob);
    std::thread::scope(|scope| {
        let bob = scope.spawn(move || bob.run(&mut b).map(|out| (out, b.hops())));
        let (a_out, a_hops) = (alice.run(&mut a).unwrap(), a.hops());
        let (b_out, b_hops) = bob.join().unwrap().unwrap();
        ((a_hops, b_hops), a_out.output, b_out.output)
    })
}

/// Pipelined resolve (wire v10), counted rather than timed. A link delay is
/// paid once per frame on the longest chain of frames each sent after the
/// one before it arrived, and [`HopClock`] counts that chain exactly: on
/// the session of `horizontal_resolve_spends_rounds_per_chunk_not_per_query`
/// (ten chunks a direction, exhaustive), Bob's clock must read `hops` and
/// Alice's one less, over `frames` frames.
fn assert_hops(
    (backend, batching): (ppds_smc::BackendKind, bool),
    dim: usize,
    (hops, frames): (u64, u64),
) {
    use ppds_dbscan::datagen::{split_alternating, uniform_points};
    let points = uniform_points(&mut rng(0x86), 200, dim, 28);
    let (alice, bob) = split_alternating(&points);
    let mut c = cfg(9, 4, 28).with_backend(backend).with_batching(batching);
    // Hops and frames do not depend on the key size; a short key keeps the
    // Paillier cell's 40,000 multiplications quick.
    c.key_bits = 128;
    let name = format!("{}/batching={batching}", backend.name());
    let ((a_hops, b_hops), a_out, b_out) = clocked(&c, &alice, &bob);
    let frames_seen = a_out.traffic.total_rounds();
    println!("{name}: {b_hops} hops, {frames_seen} frames");
    assert_eq!(
        a_out.clustering,
        dbscan_with_external_density(&alice, &bob, c.params),
        "{name}"
    );
    assert_eq!(b_out.yao.comparisons, 20_000, "{name}");
    assert_eq!((b_hops, a_hops + 1), (hops, hops), "{name}: hops");
    assert_eq!(frames_seen, frames, "{name}: frames");
}

/// At dimension 2 a chunk of ten queries is ≈ 24 KB one way and ≈ 16 KB
/// back (the querier's masked point travels once a query, wire v13), so the
/// sharing backend keeps seven in flight: the responder posts chunk
/// `i + 7`'s fold request as soon as chunk `i` settles, and the querier
/// answers it at once. Same frames; 43 hops one chunk at a time, 11 now
/// (wire v18's one establish flight costs one hop where three were). At
/// dimension 6 (≈ 56 and 16 KB) five are in flight, and at dimension 8
/// (≈ 72 KB one way, over the 64 KiB budget by itself, and ≈ 17 KB back)
/// four are: one direction's backlog alone never blocks both parties.
#[test]
fn pipelined_resolve_pays_link_delays_per_window_not_per_chunk() {
    let sharing = (ppds_smc::BackendKind::Sharing, true);
    assert_hops(sharing, 2, (11, 86));
    assert_hops(sharing, 6, (11, 86));
    assert_hops(sharing, 8, (15, 86));
}

/// The Paillier backend posts nothing ahead, so it keeps the
/// one-chunk-at-a-time order, hop for hop.
#[test]
fn paillier_resolve_keeps_one_chunk_in_flight() {
    assert_hops((ppds_smc::BackendKind::Paillier, true), 2, (83, 104));
}

/// So does the reference framing: a frame per pair and comparison message,
/// and since wire v13 a frame per query and fold message.
#[test]
fn unbatched_resolve_keeps_its_frame_order() {
    let unbatched = (ppds_smc::BackendKind::Sharing, false);
    assert_hops(unbatched, 2, (40_363, 40_406));
}

/// The window on its target deployment path: two blocking, single-threaded
/// parties over loopback sockets. Each may be mid-`send` while the other
/// is too, since a window stays within what TCP buffers hold; a deadlock
/// would surface as a 10 s `Timeout` (see `over_tcp`), not a hang. Ten
/// chunks a direction with seven in flight, then five, then four at a
/// dimension whose chunk outgrows the budget one way: labels are the
/// plaintext reference's, and the traffic is the in-memory run's, frame for
/// frame.
#[test]
fn pipelined_resolve_over_real_sockets_neither_deadlocks_nor_moves_a_frame() {
    use ppds_dbscan::datagen::uniform_points;
    use ppds_smc::BackendKind;
    let c = cfg(9, 4, 28)
        .with_backend(BackendKind::Sharing)
        .with_batching(true);
    for dim in [2, 6, 8] {
        let points = uniform_points(&mut rng(0x86), 200, dim, 28);
        let (alice, bob) = split_alternating(&points);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let alice_participant = horizontal_party(&c, Party::Alice, &alice);
        let alice_thread =
            std::thread::spawn(move || over_tcp(Some(listener), addr, alice_participant));
        let tcp_b = over_tcp(None, addr, horizontal_party(&c, Party::Bob, &bob)).output;
        let tcp_a = alice_thread.join().unwrap().output;
        assert_eq!(
            tcp_a.clustering,
            dbscan_with_external_density(&alice, &bob, c.params),
            "dim {dim}: alice labels"
        );
        assert_eq!(
            tcp_b.clustering,
            dbscan_with_external_density(&bob, &alice, c.params),
            "dim {dim}: bob labels"
        );
        let (mem_a, mem_b) = run_horizontal_pair(&c, &alice, &bob, rng(1), rng(2)).unwrap();
        assert_eq!(tcp_a.traffic, mem_a.traffic, "dim {dim}: alice traffic");
        assert_eq!(tcp_b.traffic, mem_b.traffic, "dim {dim}: bob traffic");
        assert_eq!(tcp_a.traffic.total_rounds(), 86, "dim {dim}: frames");
    }
}

/// The window's deadlock bound against a socket that buffers no more than
/// the budget the window is sized by (`prune::WINDOW_BYTES`, 64 KiB) rather
/// than loopback's larger buffers: each direction of a [`Buffered`] pair
/// holds at most that many unread bytes and blocks its sender beyond them,
/// and every read lags 300 µs, so senders run ahead until the buffers fill.
/// Two parties both blocked in `send` would fail with a 10 s `Timeout`.
/// Dimensions 1 to 8 take windows of nine chunks down to four.
#[test]
fn pipelined_resolve_fits_a_socket_that_buffers_only_the_window_budget() {
    use common::Buffered;
    use ppds_dbscan::datagen::uniform_points;
    use ppds_smc::BackendKind;
    use std::time::Duration;
    const WINDOW_BYTES: usize = 64 << 10;
    let c = cfg(9, 4, 28)
        .with_backend(BackendKind::Sharing)
        .with_batching(true);
    for dim in 1..=8 {
        let points = uniform_points(&mut rng(0x86), 200, dim, 28);
        let (alice, bob) = split_alternating(&points);
        let (a, b) = ppds_transport::duplex();
        let (lag, patience) = (Duration::from_micros(300), Duration::from_secs(10));
        let (mut a, mut b) = Buffered::pair(a, b, WINDOW_BYTES, lag, patience);
        let alice_party = horizontal_party(&c, Party::Alice, &alice);
        let bob_party = horizontal_party(&c, Party::Bob, &bob);
        let (a_out, b_out) = std::thread::scope(|scope| {
            let bob_run = scope.spawn(move || bob_party.run(&mut b));
            let a_out = alice_party.run(&mut a);
            (a_out, bob_run.join().unwrap())
        });
        let (a_out, b_out) = (a_out.unwrap().output, b_out.unwrap().output);
        assert_eq!(
            a_out.clustering,
            dbscan_with_external_density(&alice, &bob, c.params),
            "dim {dim}: alice labels"
        );
        assert_eq!(
            b_out.clustering,
            dbscan_with_external_density(&bob, &alice, c.params),
            "dim {dim}: bob labels"
        );
    }
}

/// The acceptance test of the enhanced resolve phase: a batched session
/// spends wire rounds per *step of a chunk* of engaged tests, not per test
/// and per comparison inside it. With 100 + 100 points under grid pruning
/// every test's served rows fit one chunk a direction, so a direction costs
/// its cell and count frames, one flags frame, one dot exchange, and one
/// comparison exchange per step of its longest selection plus one for the
/// thresholds — where one conversation per test made ≈ 1,250 frames. The
/// messages are the unbatched run's, regrouped: same labels, same
/// comparisons, same leakage.
#[test]
fn enhanced_resolve_spends_rounds_per_chunk_not_per_test() {
    use ppds_dbscan::datagen::{split_alternating, uniform_points};
    use ppds_dbscan::Pruning;
    use ppds_smc::BackendKind;
    let points = uniform_points(&mut rng(0x86), 200, 2, 28);
    let (alice, bob) = split_alternating(&points);
    let grid = cfg(9, 4, 28).with_pruning(Pruning::Grid { coarseness: 1 });
    let references = [
        dbscan_with_external_density(&alice, &bob, grid.params),
        dbscan_with_external_density(&bob, &alice, grid.params),
    ];
    assert!(references[0].num_clusters > 0 && references[0].noise_count() > 0);
    for backend in [BackendKind::Sharing, BackendKind::Paillier] {
        let c = grid.with_backend(backend);
        let (a_ref, b_ref) = run_enhanced_pair(&c, &alice, &bob, rng(1), rng(2)).unwrap();
        let batched = c.with_batching(true);
        let (a_out, b_out) = run_enhanced_pair(&batched, &alice, &bob, rng(1), rng(2)).unwrap();
        let name = backend.name();
        let parties = [
            (&a_out, &a_ref, &references[0]),
            (&b_out, &b_ref, &references[1]),
        ];
        for (out, unbatched, reference) in parties {
            assert_eq!(&out.clustering, reference, "{name}: labels");
            assert_eq!(out.yao, unbatched.yao, "{name}: comparisons");
            assert_eq!(out.leakage, unbatched.leakage, "{name}: leakage");
            assert_eq!(out.sharing, unbatched.sharing, "{name}: sharing ledger");
            let (b, u) = (&out.traffic, &unbatched.traffic);
            assert_eq!(b.total_messages(), u.total_messages(), "{name}: messages");
        }
        assert!(
            a_out.leakage.count_kind("threshold_rank") > 20,
            "{name}: tests engage"
        );
        let (frames, before) = (a_out.traffic.total_rounds(), a_ref.traffic.total_rounds());
        println!("{name}: {before} frames a message each, {frames} batched");
        assert!(frames <= 200, "{name}: {frames} frames");
    }
}

/// §4.3.2: vertical communication is O(c2·n0·n²). The paper's loop pays
/// (number of region queries) × (n − 1) comparisons; resolving the
/// neighbour graph once pays each unordered pair once — n(n−1)/2 — however
/// many region queries the clustering then issues.
#[test]
fn vertical_comparison_count_matches_formula() {
    let records: Vec<Point> = (0..8).map(|i| Point::new(vec![i, 0])).collect();
    let partition = VerticalPartition::split(&records, 1);
    let c = cfg(1, 2, 10);
    let (a_out, _) = run_vertical_pair(&c, &partition, rng(7), rng(8)).unwrap();
    let queries = a_out.leakage.count_kind("neighbor_count") as u64;
    let n = records.len() as u64;
    assert_eq!(a_out.yao.comparisons, n * (n - 1) / 2);
    assert!(queries >= n, "every record queried at least once");
}

/// E1's m-scaling: the `O(c1·m·l(n−l))` multiplication term grows linearly
/// with the attribute count at fixed n, while the comparison term does not
/// depend on m. Isolate the multiplication bytes as the difference between
/// two runs with identical query structure (the comparison traffic is
/// byte-identical across them — same comparison count, same capped
/// padding).
#[test]
fn horizontal_bytes_scale_linearly_with_dimension() {
    let make = |m: usize| -> (Vec<Point>, Vec<Point>) {
        let a = (0..3)
            .map(|i| Point::new(vec![i as i64; m]))
            .collect::<Vec<_>>();
        let b = (0..3)
            .map(|i| Point::new(vec![i as i64 + 1; m]))
            .collect::<Vec<_>>();
        (a, b)
    };
    let c2 = cfg(4, 2, 10);
    let (m2, _) = {
        let (a, b) = make(2);
        run_horizontal_pair(&c2, &a, &b, rng(9), rng(10)).unwrap()
    };
    let (m8, _) = {
        let (a, b) = make(8);
        run_horizontal_pair(&c2, &a, &b, rng(11), rng(12)).unwrap()
    };
    assert_eq!(
        m2.yao.comparisons, m8.yao.comparisons,
        "identical geometry must issue identical comparison sequences"
    );
    // Each pair exchanges m ciphertexts per direction; going from m = 2 to
    // m = 8 adds 12 ciphertexts per pair. A 256-bit-key ciphertext is 64
    // wire bytes plus its 4-byte length prefix.
    let pairs = m2.yao.comparisons;
    let ct_bytes = (2 * c2.key_bits / 8 + 4) as u64;
    let expected_delta = pairs * 12 * ct_bytes;
    let delta = m8.traffic.total_bytes() - m2.traffic.total_bytes();
    let rel_err = (delta as f64 - expected_delta as f64).abs() / expected_delta as f64;
    assert!(
        rel_err < 0.10,
        "delta {delta} vs expected {expected_delta} (rel err {rel_err:.3})"
    );
}
