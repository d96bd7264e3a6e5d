//! End-to-end coverage of `ppds-server`: concurrent mixed-mode sessions
//! byte-identical to direct in-process runs, typed backpressure, graceful
//! drain, and handshake-timeout reaping.

use ppdbscan::config::ProtocolConfig;
use ppdbscan::session::{run_participants, Hello, Mode, Participant, PartyData, WIRE_VERSION};
use ppdbscan::VerticalPartition;
use ppds_dbscan::datagen::{split_alternating, standard_blobs};
use ppds_dbscan::{DbscanParams, Point, Quantizer};
use ppds_server::{
    hosted, open_session, ops_get, run_session, session_seed, ClientError, Server, ServerConfig,
    ServerReply, SessionState,
};
use ppds_smc::Party;
use ppds_transport::tcp::TcpChannel;
use ppds_transport::Channel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::{Duration, Instant};

const TIMEOUT: Duration = Duration::from_secs(20);

fn blobs(n: usize, seed: u64) -> Vec<Point> {
    let quantizer = Quantizer::new(1.0, 60);
    let (points, _) = standard_blobs(
        &mut StdRng::seed_from_u64(seed),
        (n / 3).max(1),
        3,
        2,
        quantizer,
    );
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

/// Polls `cond` until it holds or the deadline expires.
fn wait_until(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + TIMEOUT;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// One e2e scenario: the mode, the negotiated knobs, and the client's and
/// server's data views.
struct Scenario {
    id: u64,
    batching: bool,
    packing: bool,
    client_data: PartyData,
    server_data: PartyData,
    client_seed: u64,
}

fn scenarios() -> Vec<Scenario> {
    let records = blobs(18, 777);
    let (alice, bob) = split_alternating(&records);
    let vertical = VerticalPartition::split(&records, 1);
    vec![
        Scenario {
            id: 1,
            batching: false,
            packing: false,
            client_data: PartyData::Horizontal(alice.clone()),
            server_data: PartyData::Horizontal(bob.clone()),
            client_seed: 101,
        },
        Scenario {
            id: 2,
            batching: true,
            packing: false,
            client_data: PartyData::Enhanced(alice.clone()),
            server_data: PartyData::Enhanced(bob.clone()),
            client_seed: 102,
        },
        Scenario {
            id: 3,
            batching: false,
            packing: true,
            client_data: PartyData::Vertical(vertical.alice),
            server_data: PartyData::Vertical(vertical.bob),
            client_seed: 103,
        },
        Scenario {
            id: 4,
            batching: true,
            packing: true,
            client_data: PartyData::Horizontal(alice),
            server_data: PartyData::Horizontal(bob),
            client_seed: 104,
        },
    ]
}

const BASE_SEED: u64 = 0xE2E0;

fn start_server(hosted_data: Vec<PartyData>, workers: usize, cap: usize) -> Server {
    let hosted_modes = hosted_data
        .into_iter()
        .map(|data| hosted(base_cfg(), Party::Bob, data))
        .collect();
    Server::start(
        ServerConfig::new(hosted_modes)
            .with_workers(workers)
            .with_queue_cap(cap)
            .with_base_seed(BASE_SEED),
    )
    .expect("server starts")
}

#[test]
fn concurrent_mixed_sessions_match_direct_runs_and_metrics_are_live() {
    let records = blobs(18, 777);
    let (_, bob) = split_alternating(&records);
    let vertical_bob = VerticalPartition::split(&records, 1).bob;
    let server = start_server(
        vec![
            PartyData::Horizontal(bob.clone()),
            PartyData::Enhanced(bob),
            PartyData::Vertical(vertical_bob),
        ],
        4,
        8,
    );
    let addr = server.local_addr();
    let ops = server.ops_addr();

    // Open all four sessions before any client runs: every server-side
    // task is now in flight simultaneously, pinned at the key exchange.
    let mut opened = Vec::new();
    for sc in scenarios() {
        let cfg = base_cfg()
            .with_batching(sc.batching)
            .with_packing(sc.packing);
        let participant = Participant::new(cfg)
            .role(Party::Alice)
            .data(sc.client_data.clone())
            .seed(sc.client_seed);
        let session = open_session(&addr, &participant, sc.id, TIMEOUT).expect("admitted");
        assert_eq!(session.session_id(), sc.id, "proposed id honored");
        opened.push((sc, session, participant));
    }

    // Live metrics while all four sessions are active: the acceptance
    // gauges must be present and current on the operator endpoint.
    let metrics = ops_get(&ops, "/metrics").expect("metrics scrape");
    assert!(
        metrics.contains("server_active_sessions 4"),
        "active gauge live during run:\n{metrics}"
    );
    assert!(
        metrics.contains("engine_queue_depth"),
        "engine gauge exported:\n{metrics}"
    );
    assert!(metrics.contains("server_sessions_accepted 4"), "{metrics}");
    assert_eq!(ops_get(&ops, "/healthz").expect("healthz"), "ok\n");

    // Run all four concurrently over real TCP.
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = opened
            .into_iter()
            .map(|(sc, session, participant)| {
                scope.spawn(move || (sc, session.run(participant).expect("session runs")))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Byte-identity: a direct in-process run of the same pair with the
    // same seeds must agree on labels, leakage, ledger, and traffic.
    for (sc, via_server) in &outcomes {
        let cfg = base_cfg()
            .with_batching(sc.batching)
            .with_packing(sc.packing);
        let direct_server = Participant::new(cfg)
            .role(Party::Bob)
            .data(sc.server_data.clone())
            .seed(session_seed(BASE_SEED, sc.id));
        let direct_client = Participant::new(cfg)
            .role(Party::Alice)
            .data(sc.client_data.clone())
            .seed(sc.client_seed);
        let (_, direct) = run_participants(direct_server, direct_client).expect("direct run");
        let name = format!("session {}", sc.id);
        assert_eq!(
            direct.output.clustering, via_server.output.clustering,
            "{name}: labels"
        );
        assert_eq!(
            direct.output.leakage, via_server.output.leakage,
            "{name}: LeakageLog"
        );
        assert_eq!(
            direct.output.yao, via_server.output.yao,
            "{name}: YaoLedger"
        );
        // The only wire difference is the preamble: exactly one extra
        // frame each way (the Hello out, the Accept back).
        assert_eq!(
            via_server.output.traffic.messages_sent,
            direct.output.traffic.messages_sent + 1,
            "{name}: preamble adds one outbound frame"
        );
        assert_eq!(
            via_server.output.traffic.messages_received,
            direct.output.traffic.messages_received + 1,
            "{name}: preamble adds one inbound frame"
        );
        assert_eq!(direct.meta, via_server.meta, "{name}: meta");
    }

    // Registry and operator views agree once everything completed.
    wait_until("all sessions completed", || {
        server.sessions().len() == 4
            && server
                .sessions()
                .iter()
                .all(|s| s.state == SessionState::Completed)
    });
    let sessions = ops_get(&ops, "/sessions").expect("sessions scrape");
    assert!(sessions.contains("1 horizontal completed"), "{sessions}");
    assert!(sessions.contains("2 enhanced completed"), "{sessions}");
    assert!(sessions.contains("3 vertical completed"), "{sessions}");
    let trace = ops_get(&ops, "/trace/2").expect("trace scrape");
    assert!(trace.contains("session-2"), "chrome trace served: {trace}");
    assert!(
        ops_get(&ops, "/trace/99").unwrap().contains("no trace"),
        "unknown trace is a 404 body"
    );

    let report = server.shutdown(Duration::from_secs(5));
    assert_eq!(report.completed, 4);
    assert_eq!(report.failed, 0);
    assert_eq!(report.dropped, 0);
    assert_eq!(report.engine.completed, 4);
}

#[test]
fn one_slot_queue_sheds_load_with_typed_busy() {
    let records = blobs(12, 31);
    let (alice, bob) = split_alternating(&records);
    let server = start_server(vec![PartyData::Horizontal(bob)], 1, 1);
    let addr = server.local_addr();
    let participant = |seed: u64| {
        Participant::new(base_cfg())
            .role(Party::Alice)
            .data(PartyData::Horizontal(alice.clone()))
            .seed(seed)
    };

    // A admitted and picked up by the single worker...
    let pa = participant(201);
    let sa = open_session(&addr, &pa, 0, TIMEOUT).expect("A admitted");
    wait_until("A running", || {
        server
            .sessions()
            .iter()
            .any(|s| s.id == sa.session_id() && s.state == SessionState::Running)
    });
    // ...B fills the one queue slot...
    let pb = participant(202);
    let sb = open_session(&addr, &pb, 0, TIMEOUT).expect("B queued");
    wait_until("B queued", || {
        server.metrics().gauge("engine_queue_depth").get() == 1
    });
    // ...so C is refused with the typed depth/cap.
    let pc = participant(203);
    match open_session(&addr, &pc, 0, TIMEOUT) {
        Err(ClientError::Busy { depth, cap }) => {
            assert_eq!((depth, cap), (1, 1));
        }
        other => panic!(
            "expected Busy, got {other:?}",
            other = other.map(|s| s.session_id())
        ),
    }
    assert_eq!(
        server
            .metrics()
            .counter("server_sessions_rejected_busy")
            .get(),
        1
    );

    // The shed load was transient: A and B still complete normally.
    sa.run(pa).expect("A completes");
    sb.run(pb).expect("B completes");
    let report = server.shutdown(Duration::from_secs(5));
    assert_eq!(report.completed, 2);
    assert_eq!(report.failed, 0);
}

#[test]
fn graceful_shutdown_drains_in_flight_and_rejects_late_connects() {
    let records = blobs(12, 47);
    let (alice, bob) = split_alternating(&records);
    let server = start_server(vec![PartyData::Horizontal(bob)], 2, 4);
    let addr = server.local_addr();
    let ops = server.ops_addr();
    let participant = |seed: u64| {
        Participant::new(base_cfg())
            .role(Party::Alice)
            .data(PartyData::Horizontal(alice.clone()))
            .seed(seed)
    };

    // One session in flight, held at the key exchange.
    let pa = participant(301);
    let sa = open_session(&addr, &pa, 0, TIMEOUT).expect("A admitted");
    wait_until("A running", || {
        server
            .sessions()
            .iter()
            .any(|s| s.state == SessionState::Running)
    });

    // Start the drain on its own thread; it must wait for A.
    let shutdown = std::thread::spawn(move || server.shutdown(Duration::from_secs(15)));
    wait_until("draining visible", || {
        ops_get(&ops, "/healthz").is_ok_and(|body| body == "draining\n")
    });

    // A late connect during the drain gets the typed refusal.
    let pl = participant(302);
    match open_session(&addr, &pl, 0, TIMEOUT) {
        Err(ClientError::Draining) => {}
        other => panic!(
            "expected Draining, got {other:?}",
            other = other.map(|s| s.session_id())
        ),
    }

    // The in-flight session still completes.
    sa.run(pa).expect("A drains to completion");
    let report = shutdown.join().expect("shutdown thread");
    assert_eq!(report.completed, 1);
    assert_eq!(report.dropped, 0);
    assert!(report.rejected_draining >= 1);

    // After the drain the listener is gone entirely.
    let pp = participant(303);
    match open_session(&addr, &pp, 0, Duration::from_secs(2)) {
        Err(ClientError::Transport(_)) => {}
        other => panic!(
            "expected Transport error, got {other:?}",
            other = other.map(|s| s.session_id())
        ),
    }
}

#[test]
fn drain_deadline_sheds_queued_sessions() {
    let records = blobs(12, 53);
    let (alice, bob) = split_alternating(&records);
    let hosted_modes = vec![hosted(base_cfg(), Party::Bob, PartyData::Horizontal(bob))];
    let server = Server::start(
        ServerConfig::new(hosted_modes)
            .with_workers(1)
            .with_queue_cap(4)
            // The held-open in-flight session dies by read timeout, so the
            // drain (and the test) terminates without client cooperation.
            .with_session_read_timeout(Some(Duration::from_millis(300))),
    )
    .expect("server starts");
    let addr = server.local_addr();
    let participant = |seed: u64| {
        Participant::new(base_cfg())
            .role(Party::Alice)
            .data(PartyData::Horizontal(alice.clone()))
            .seed(seed)
    };

    // A occupies the worker; B waits in queue. Neither client ever runs.
    let pa = participant(401);
    let _sa = open_session(&addr, &pa, 0, TIMEOUT).expect("A admitted");
    wait_until("A running", || {
        server
            .sessions()
            .iter()
            .any(|s| s.state == SessionState::Running)
    });
    let pb = participant(402);
    let _sb = open_session(&addr, &pb, 0, TIMEOUT).expect("B queued");

    // Drain with a deadline shorter than A's read timeout: A fails on its
    // read deadline, B is shed before ever running.
    let report = server.shutdown(Duration::from_millis(100));
    assert_eq!(report.failed, 1, "in-flight A hit its read deadline");
    assert_eq!(report.dropped, 1, "queued B shed past the drain deadline");
    assert_eq!(report.completed, 0);
}

#[test]
fn handshake_timeout_reaps_silent_connection_without_harming_neighbors() {
    let records = blobs(12, 59);
    let (alice, bob) = split_alternating(&records);
    let hosted_modes = vec![hosted(base_cfg(), Party::Bob, PartyData::Horizontal(bob))];
    let server = Server::start(
        ServerConfig::new(hosted_modes)
            .with_workers(2)
            .with_queue_cap(4)
            .with_handshake_timeout(Duration::from_millis(150)),
    )
    .expect("server starts");
    let addr = server.local_addr();

    // A connection that never speaks: must be reaped, not pinned forever.
    let silent = std::net::TcpStream::connect(addr).expect("connect");
    wait_until("silent peer reaped", || {
        server.metrics().counter("server_handshake_timeouts").get() == 1
    });

    // Neighbors are unaffected before and after the reap.
    let participant = Participant::new(base_cfg())
        .role(Party::Alice)
        .data(PartyData::Horizontal(alice))
        .seed(501);
    let (_, outcome) = run_session(&addr, participant, 0, TIMEOUT).expect("neighbor completes");
    assert_eq!(outcome.meta.mode, Mode::Horizontal);
    drop(silent);

    let report = server.shutdown(Duration::from_secs(5));
    assert_eq!(report.completed, 1);
    assert_eq!(report.failed, 0);
}

#[test]
fn hot_keypair_is_generated_once_and_reused_across_sessions() {
    let records = blobs(12, 67);
    let (alice, bob) = split_alternating(&records);
    let server = start_server(
        vec![PartyData::Horizontal(bob.clone()), PartyData::Enhanced(bob)],
        2,
        4,
    );
    let addr = server.local_addr();

    // Three sessions — two modes — at the same security parameter: keygen
    // runs exactly once, every later session takes the cache hit.
    for (seed, data) in [
        (701, PartyData::Horizontal(alice.clone())),
        (702, PartyData::Horizontal(alice.clone())),
        (703, PartyData::Enhanced(alice)),
    ] {
        let participant = Participant::new(base_cfg())
            .role(Party::Alice)
            .data(data)
            .seed(seed);
        run_session(&addr, participant, 0, TIMEOUT).expect("session completes");
    }
    let misses = server
        .metrics()
        .counter("server_keypair_cache_misses")
        .get();
    let hits = server.metrics().counter("server_keypair_cache_hits").get();
    assert_eq!(misses, 1, "one keygen for the shared security parameter");
    assert_eq!(hits, 2, "every later session reuses the hot key");

    let report = server.shutdown(Duration::from_secs(5));
    assert_eq!(report.completed, 3);
    assert_eq!(report.failed, 0);
}

#[test]
fn negotiation_cache_skips_rechecks_for_reconnecting_clients() {
    let records = blobs(12, 68);
    let (alice, bob) = split_alternating(&records);
    let server = start_server(vec![PartyData::Horizontal(bob)], 2, 4);
    let addr = server.local_addr();

    // Identical preamble three times: the knobs are adopted and
    // cross-checked once; both reconnects take the cache hit.
    for seed in [711, 712, 713] {
        let participant = Participant::new(base_cfg())
            .role(Party::Alice)
            .data(PartyData::Horizontal(alice.clone()))
            .seed(seed);
        run_session(&addr, participant, 0, TIMEOUT).expect("session completes");
    }
    // A changed knob is a different fingerprint: re-negotiated once.
    let batched = Participant::new(base_cfg().with_batching(true))
        .role(Party::Alice)
        .data(PartyData::Horizontal(alice))
        .seed(714);
    run_session(&addr, batched, 0, TIMEOUT).expect("batched session completes");

    // The fingerprint covers the wire version: the cached verdict for the
    // first preamble never answers the same fields from a v6 build, whose
    // per-query horizontal transcript this build would desync against.
    let old_build =
        Hello::for_session(&base_cfg(), Mode::Horizontal, 6, 2).with_wire_version(WIRE_VERSION - 1);
    let mut chan = TcpChannel::connect_timeout(&addr, TIMEOUT).unwrap();
    chan.send(&old_build).unwrap();
    match chan.recv::<ServerReply>().unwrap() {
        ServerReply::Incompatible {
            field,
            ours,
            theirs,
        } => {
            assert_eq!(field, "wire_version");
            assert_eq!(
                (ours, theirs),
                (u64::from(WIRE_VERSION), u64::from(WIRE_VERSION) - 1)
            );
        }
        other => panic!("expected Incompatible on wire_version, got {other:?}"),
    }

    let metrics = server.metrics();
    assert_eq!(
        metrics.counter("server_negotiation_cache_misses").get(),
        3,
        "one check per distinct preamble"
    );
    assert_eq!(
        metrics.counter("server_negotiation_cache_hits").get(),
        2,
        "reconnects with unchanged config skip re-negotiation"
    );

    let report = server.shutdown(Duration::from_secs(5));
    assert_eq!(report.completed, 4);
    assert_eq!(report.failed, 0);
}

#[test]
fn typed_rejections_for_incompatible_and_unhosted_clients() {
    let records = blobs(12, 61);
    let (alice, bob) = split_alternating(&records);
    let server = start_server(vec![PartyData::Horizontal(bob)], 2, 4);
    let addr = server.local_addr();

    // Same mode, different eps_sq: named-field incompatibility.
    let mut wrong_cfg = base_cfg();
    wrong_cfg.params.eps_sq = 4;
    let wrong_eps = Participant::new(wrong_cfg)
        .role(Party::Alice)
        .data(PartyData::Horizontal(alice.clone()))
        .seed(601);
    match open_session(&addr, &wrong_eps, 0, TIMEOUT) {
        Err(ClientError::Incompatible {
            field,
            ours,
            theirs,
        }) => {
            assert_eq!(field, "eps_sq");
            assert_eq!((ours, theirs), (81, 4));
        }
        other => panic!(
            "expected Incompatible, got {other:?}",
            other = other.map(|s| s.session_id())
        ),
    }

    // A mode the server does not host.
    let enhanced = Participant::new(base_cfg())
        .role(Party::Alice)
        .data(PartyData::Enhanced(alice))
        .seed(602);
    match open_session(&addr, &enhanced, 0, TIMEOUT) {
        Err(ClientError::Unsupported(detail)) => {
            assert!(detail.contains("enhanced"), "{detail}");
        }
        other => panic!(
            "expected Unsupported, got {other:?}",
            other = other.map(|s| s.session_id())
        ),
    }

    assert_eq!(
        server
            .metrics()
            .counter("server_sessions_rejected_incompatible")
            .get(),
        2
    );
    let report = server.shutdown(Duration::from_secs(5));
    assert_eq!(report.completed, 0);
    assert_eq!(report.failed, 0);
}
