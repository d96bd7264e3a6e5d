//! Flight-recorder parity: tracing observes a session without
//! participating. For every protocol family and framing, a traced run must
//! be **byte-identical** to the untraced reference under the same seeds —
//! same labels, same leakage log, same Yao ledger, same wire bytes (hashed
//! frame by frame) — and the trace itself must be schema-valid with its
//! top-level phase deltas summing exactly to the session's total traffic.

mod common;

use common::rng;
use ppdbscan::config::ProtocolConfig;
use ppdbscan::session::{Participant, PartyData, SessionOutcome};
use ppdbscan::{ArbitraryPartition, VerticalPartition};
use ppds_dbscan::datagen::{split_alternating, standard_blobs};
use ppds_dbscan::{DbscanParams, Point, Quantizer};
use ppds_observe::{SessionTrace, SpanKind, SpanRecorder};
use ppds_smc::Party;
use ppds_transport::{duplex, Channel, MetricsSnapshot, TransportError};

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

/// FNV-1a over every wire frame (direction-tagged, length-delimited): two
/// runs with equal hashes exchanged identical byte sequences.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Channel wrapper hashing every frame it carries. It must forward the
/// batch-note hooks — they reclassify rounds in the metrics, and dropping
/// them would silently diverge the traffic snapshots tracing reports.
struct Recording<C: Channel> {
    inner: C,
    hash: Fnv,
}

impl<C: Channel> Recording<C> {
    fn new(inner: C) -> Recording<C> {
        Recording {
            inner,
            hash: Fnv::new(),
        }
    }

    fn hash(&self) -> u64 {
        self.hash.0
    }
}

impl<C: Channel> Channel for Recording<C> {
    fn send_bytes(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.hash.update(&[0x51]);
        self.hash.update(&(payload.len() as u64).to_le_bytes());
        self.hash.update(payload);
        self.inner.send_bytes(payload)
    }

    fn recv_bytes(&mut self) -> Result<Vec<u8>, TransportError> {
        let payload = self.inner.recv_bytes()?;
        self.hash.update(&[0x52]);
        self.hash.update(&(payload.len() as u64).to_le_bytes());
        self.hash.update(&payload);
        Ok(payload)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }

    fn note_batch_sent(&mut self, items: u64) {
        self.inner.note_batch_sent(items);
    }

    fn note_batch_received(&mut self, items: u64) {
        self.inner.note_batch_received(items);
    }
}

/// Runs a two-party session over hashing channels; Alice records a trace
/// iff `traced`. Returns both outcomes and both wire hashes.
fn run_pair(
    cfg: &ProtocolConfig,
    alice: PartyData,
    bob: PartyData,
    traced: bool,
) -> (SessionOutcome, SessionOutcome, u64, u64) {
    let (ca, cb) = duplex();
    let mut ca = Recording::new(ca);
    let mut cb = Recording::new(cb);
    let mut pa = Participant::new(*cfg)
        .role(Party::Alice)
        .data(alice)
        .rng(rng(11));
    if traced {
        pa = pa.trace(SpanRecorder::new());
    }
    let pb = Participant::new(*cfg)
        .role(Party::Bob)
        .data(bob)
        .rng(rng(12));
    let (a, b) = std::thread::scope(|scope| {
        let ha = scope.spawn(move || (pa.run(&mut ca).unwrap(), ca.hash()));
        let hb = scope.spawn(move || (pb.run(&mut cb).unwrap(), cb.hash()));
        (ha.join().unwrap(), hb.join().unwrap())
    });
    (a.0, b.0, a.1, b.1)
}

/// Runs a 3-party mesh over hashing channels; node 0 records a trace iff
/// `traced`. Returns the outcomes and each node's combined wire hash.
fn run_mesh(cfg: &ProtocolConfig, all: &[Point], traced: bool) -> (Vec<SessionOutcome>, Vec<u64>) {
    let k = 3usize;
    let mut parties: Vec<Vec<Point>> = vec![Vec::new(); k];
    for (i, p) in all.iter().enumerate() {
        parties[i % k].push(p.clone());
    }
    let mut channels: Vec<Vec<(usize, _)>> = (0..k).map(|_| Vec::new()).collect();
    for i in 0..k {
        for j in i + 1..k {
            let (a, b) = duplex();
            channels[i].push((j, Recording::new(a)));
            channels[j].push((i, Recording::new(b)));
        }
    }
    let mut results: Vec<Option<(SessionOutcome, u64)>> = (0..k).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (my_id, (mut peers, points)) in channels.drain(..).zip(&parties).enumerate() {
            let mut participant = Participant::new(*cfg)
                .data(PartyData::Multiparty(points.clone()))
                .seed(42 + my_id as u64);
            if traced && my_id == 0 {
                participant = participant.trace(SpanRecorder::new());
            }
            handles.push(scope.spawn(move || {
                let outcome = participant.run_mesh(&mut peers, my_id, k).unwrap();
                let mut hash = Fnv::new();
                for (peer, chan) in &peers {
                    hash.update(&(*peer as u64).to_le_bytes());
                    hash.update(&chan.hash().to_le_bytes());
                }
                (outcome, hash.0)
            }));
        }
        for (i, handle) in handles.into_iter().enumerate() {
            results[i] = Some(handle.join().unwrap());
        }
    });
    let mut outcomes = Vec::new();
    let mut hashes = Vec::new();
    for slot in results {
        let (outcome, hash) = slot.unwrap();
        outcomes.push(outcome);
        hashes.push(hash);
    }
    (outcomes, hashes)
}

/// Side-by-side assertion: outputs and wire bytes identical, traced side
/// carries a trace, untraced side does not.
fn assert_same_session(name: &str, untraced: &SessionOutcome, traced: &SessionOutcome) {
    assert_eq!(
        untraced.output.clustering, traced.output.clustering,
        "{name}: labels must be byte-identical traced vs untraced"
    );
    assert_eq!(
        untraced.output.leakage, traced.output.leakage,
        "{name}: tracing must not widen leakage"
    );
    assert_eq!(
        untraced.output.yao, traced.output.yao,
        "{name}: same comparisons, same modeled Yao cost"
    );
    assert_eq!(
        untraced.output.traffic, traced.output.traffic,
        "{name}: identical traffic counters"
    );
    assert!(untraced.trace.is_none(), "{name}: no opt-in, no trace");
}

/// Schema validity plus the accounting identity this PR's acceptance pins:
/// the sum of top-level span deltas equals the session's total traffic.
fn assert_trace_accounts(name: &str, trace: &SessionTrace, total: MetricsSnapshot) {
    trace
        .validate()
        .unwrap_or_else(|e| panic!("{name}: trace schema: {e}"));
    assert!(!trace.is_empty(), "{name}: traced run must record spans");
    assert_eq!(trace.dropped, 0, "{name}: no events dropped");
    let top = trace
        .top_level_traffic()
        .unwrap_or_else(|e| panic!("{name}: rollup: {e}"));
    assert_eq!(
        top, total,
        "{name}: top-level phase deltas must sum to the session total"
    );
    assert_tiles(name, trace);
}

/// The top-level spans tile the session: the trace opens with the begin of
/// `keygen` and closes with the end of `assemble`, stamped on the session
/// thread no earlier than any other edge — so whatever the session did,
/// taking its recorder apart included, happened inside a top-level span.
fn assert_tiles(name: &str, trace: &SessionTrace) {
    let (first, last) = (&trace.events[0], trace.events.last().unwrap());
    assert_eq!(
        (first.kind, first.label.as_str()),
        (SpanKind::Begin, "keygen"),
        "{name}: a session opens with its first top-level span"
    );
    assert_eq!(
        (last.kind, last.label.as_str(), last.thread),
        (SpanKind::End, "assemble", first.thread),
        "{name}: a session closes with the end of `assemble` on its own thread"
    );
    assert!(
        trace.events.iter().all(|e| e.t_ns <= last.t_ns),
        "{name}: no edge is stamped after the closing one"
    );
    // On the session thread the depth-0 spans are those four, in order.
    let mut depth = 0usize;
    let mut top = Vec::new();
    for event in trace.events.iter().filter(|e| e.thread == first.thread) {
        match event.kind {
            SpanKind::Begin => {
                if depth == 0 {
                    top.push(event.label.as_str());
                }
                depth += 1;
            }
            SpanKind::End => depth -= 1,
        }
    }
    assert_eq!(
        top,
        ["keygen", "establish", "execute", "assemble"],
        "{name}: four top-level spans, no fifth"
    );
}

/// (batching, packing) framings under test; packing requires batching.
const FRAMINGS: [(bool, bool); 3] = [(false, false), (true, false), (true, true)];

#[test]
fn two_party_modes_are_byte_identical_traced_vs_untraced() {
    let all = blobs(18, 9_200);
    let (alice_pts, bob_pts) = split_alternating(&all);
    let vp = VerticalPartition::split(&all, 1);
    let ap = ArbitraryPartition::random(&mut rng(9_201), &all);
    let modes: Vec<(&str, PartyData, PartyData)> = vec![
        (
            "horizontal",
            PartyData::Horizontal(alice_pts.clone()),
            PartyData::Horizontal(bob_pts.clone()),
        ),
        (
            "enhanced",
            PartyData::Enhanced(alice_pts.clone()),
            PartyData::Enhanced(bob_pts.clone()),
        ),
        (
            "vertical",
            PartyData::Vertical(vp.alice.clone()),
            PartyData::Vertical(vp.bob.clone()),
        ),
        (
            "arbitrary",
            PartyData::Arbitrary(ap.alice_values.clone()),
            PartyData::Arbitrary(ap.bob_values.clone()),
        ),
    ];
    for (mode, alice, bob) in &modes {
        for (batching, packing) in FRAMINGS {
            let name = format!("{mode}/batching={batching}/packing={packing}");
            let cfg = base_cfg().with_batching(batching).with_packing(packing);
            let (u_a, u_b, u_ha, u_hb) = run_pair(&cfg, alice.clone(), bob.clone(), false);
            let (t_a, t_b, t_ha, t_hb) = run_pair(&cfg, alice.clone(), bob.clone(), true);
            assert_same_session(&format!("{name}/alice"), &u_a, &t_a);
            assert_same_session(&format!("{name}/bob"), &u_b, &t_b);
            assert_eq!(u_ha, t_ha, "{name}: alice wire bytes must be identical");
            assert_eq!(u_hb, t_hb, "{name}: bob wire bytes must be identical");
            let trace = t_a.trace.as_ref().expect("alice opted in");
            assert_trace_accounts(&name, trace, t_a.output.traffic);
            // Every mode's wire phase is a run of `resolve#<k>` spans right
            // under `execute`, the smc spans nested inside them.
            let rollup = trace.rollup().unwrap();
            let under_execute: Vec<&str> = rollup
                .iter()
                .filter_map(|row| row.path.strip_prefix("execute/"))
                .collect();
            assert!(
                under_execute.iter().all(|path| path.starts_with("resolve")),
                "{name}: {under_execute:?}"
            );
            if *mode == "horizontal" && batching {
                // 9 x 9 cross pairs are one chunk a direction.
                let count_of = |path: &str| rollup.iter().find(|r| r.path == path).map(|r| r.count);
                assert_eq!(count_of("execute/resolve"), Some(2), "{name}");
                assert_eq!(count_of("execute/resolve/mul_batch"), Some(2), "{name}");
                assert_eq!(count_of("execute/resolve/cmp_batch"), Some(2), "{name}");
            }
        }
    }
}

/// A pipelined resolve (wire v10) posts chunk `i + W`'s fold request while
/// chunk `i` settles, so its spans are where a trace could stop nesting.
/// 100 + 100 points on the sharing backend are ten chunks a direction, seven
/// in flight: the trace must replay, every `mul_batch` / `cmp_batch` span
/// must sit inside a `resolve#` span, the top-level spans must tile the
/// session, and tracing must not move a byte.
#[test]
fn pipelined_resolve_spans_nest_inside_their_chunks() {
    use ppds_dbscan::datagen::uniform_points;
    use ppds_smc::BackendKind;
    let points = uniform_points(&mut rng(0x86), 200, 2, 28);
    let (alice, bob) = split_alternating(&points);
    let cfg = ProtocolConfig::new(
        DbscanParams {
            eps_sq: 9,
            min_pts: 4,
        },
        28,
    )
    .with_backend(BackendKind::Sharing)
    .with_batching(true);
    let data = || {
        (
            PartyData::Horizontal(alice.clone()),
            PartyData::Horizontal(bob.clone()),
        )
    };
    let (a, b) = data();
    let (u_a, u_b, u_ha, u_hb) = run_pair(&cfg, a, b, false);
    let (a, b) = data();
    let (t_a, t_b, t_ha, t_hb) = run_pair(&cfg, a, b, true);
    assert_same_session("pipelined/alice", &u_a, &t_a);
    assert_same_session("pipelined/bob", &u_b, &t_b);
    assert_eq!((u_ha, u_hb), (t_ha, t_hb), "wire bytes must be identical");
    let trace = t_a.trace.as_ref().expect("alice opted in");
    assert_trace_accounts("pipelined", trace, t_a.output.traffic);

    let mut open: Vec<&str> = Vec::new();
    let (mut chunks, mut smc_spans) = (0, 0);
    for event in &trace.events {
        match event.kind {
            SpanKind::Begin => {
                let label = event.label.as_str();
                if label.starts_with("resolve#") {
                    chunks += 1;
                }
                if label == "mul_batch" || label == "cmp_batch" {
                    smc_spans += 1;
                    assert!(
                        open.iter().any(|l| l.starts_with("resolve#")),
                        "{label} outside every chunk, under {open:?}"
                    );
                }
                open.push(label);
            }
            SpanKind::End => {
                open.pop();
            }
        }
    }
    assert_eq!(chunks, 20, "ten chunks a direction");
    // Per chunk Alice answers a fold and posts her half of the open as the
    // querier, then settles it; as the responder she posts a fold request,
    // settles it and compares — three and three spans.
    assert_eq!(smc_spans, 10 * 3 + 10 * 3);
}

#[test]
fn multiparty_mesh_is_byte_identical_traced_vs_untraced() {
    let all = blobs(18, 9_300);
    for (batching, packing) in FRAMINGS {
        let name = format!("multiparty/batching={batching}/packing={packing}");
        let cfg = base_cfg().with_batching(batching).with_packing(packing);
        let (untraced, u_hashes) = run_mesh(&cfg, &all, false);
        let (traced, t_hashes) = run_mesh(&cfg, &all, true);
        for (i, (u, t)) in untraced.iter().zip(&traced).enumerate() {
            assert_same_session(&format!("{name}/node{i}"), u, t);
        }
        assert_eq!(u_hashes, t_hashes, "{name}: wire bytes must be identical");
        let trace = traced[0].trace.as_ref().expect("node 0 opted in");
        assert_trace_accounts(&name, trace, traced[0].output.traffic);
    }
}

#[test]
fn traced_vertical_chrome_export_is_loadable_and_accounts_exactly() {
    // The acceptance criterion spelled out in full: a traced vertical-mode
    // session must export valid Chrome trace JSON whose per-phase deltas
    // sum exactly to the session's total traffic snapshot.
    let all = blobs(18, 9_400);
    let vp = VerticalPartition::split(&all, 1);
    let cfg = base_cfg().with_batching(true).with_packing(true);
    let (outcome, _, _, _) = run_pair(
        &cfg,
        PartyData::Vertical(vp.alice.clone()),
        PartyData::Vertical(vp.bob.clone()),
        true,
    );
    let trace = outcome.trace.as_ref().expect("traced run");
    assert_trace_accounts("vertical", trace, outcome.output.traffic);
    let json = trace.to_chrome_json("vertical");
    let json = json.trim_end();
    assert!(json.starts_with('{') && json.ends_with('}'), "whole object");
    assert!(json.contains("\"traceEvents\""), "Chrome trace envelope");
    assert!(json.contains("\"ph\":\"B\"") && json.contains("\"ph\":\"E\""));
    assert!(
        json.contains("\"execute\"") && json.contains("\"resolve#0\""),
        "per-phase spans present in the export"
    );
    // 18 records are 153 unordered pairs: one resolve chunk, opened and
    // closed once, with the comparison batch nested inside it.
    let resolves = trace
        .events
        .iter()
        .filter(|e| e.label.starts_with("resolve#"));
    assert_eq!(resolves.count(), 2, "one resolve span per pair chunk");
    assert!(
        trace
            .rollup()
            .unwrap()
            .iter()
            .any(|row| row.path.ends_with("execute/resolve/cmp_batch")),
        "cmp_batch keeps its label under the chunk span"
    );
    // Every begin has a matching end in the export (replayed, not counted:
    // validate() above already proved it; this pins the serialized form).
    assert_eq!(json.matches("\"ph\":\"B\"").count(), trace.len() / 2);
}

#[test]
fn a_recorder_with_a_second_handle_and_a_failed_session_both_close_well_formed() {
    let all = blobs(18, 9_500);
    let (alice_pts, bob_pts) = split_alternating(&all);
    let run = |alice_cfg: ProtocolConfig, bob_cfg: ProtocolConfig| {
        let recorder = SpanRecorder::new();
        let (mut ca, mut cb) = duplex();
        let pa = Participant::new(alice_cfg)
            .role(Party::Alice)
            .data(PartyData::Horizontal(alice_pts.clone()))
            .rng(rng(11))
            .trace(recorder.clone());
        let pb = Participant::new(bob_cfg)
            .role(Party::Bob)
            .data(PartyData::Horizontal(bob_pts.clone()))
            .rng(rng(12));
        let result = std::thread::scope(|scope| {
            let ha = scope.spawn(move || pa.run(&mut ca));
            let hb = scope.spawn(move || pb.run(&mut cb));
            let _ = hb.join().unwrap();
            ha.join().unwrap()
        });
        (result, recorder)
    };

    // The test's handle keeps `finish` on its copying arm: the closing edge
    // goes into the shared buffer, so both views of the session are closed.
    let (outcome, recorder) = run(base_cfg(), base_cfg());
    let outcome = outcome.unwrap();
    let trace = outcome.trace.as_ref().expect("traced run");
    assert_trace_accounts("second handle", trace, outcome.output.traffic);
    assert_eq!(recorder.finish(None), *trace);

    // A handshake the peer refuses: `run` returns the typed error, and what
    // the recorder saw up to then still replays (the open spans closed as
    // the error unwound through them, before the sink was uninstalled).
    let (outcome, recorder) = run(base_cfg().with_batching(true), base_cfg());
    assert!(outcome.is_err(), "framing mismatch is refused at handshake");
    let trace = recorder.finish(None);
    trace.validate().expect("an Err session's trace replays");
    let first = &trace.events[0];
    assert_eq!(
        (first.kind, first.label.as_str()),
        (SpanKind::Begin, "keygen")
    );
    let rollup = trace.rollup().unwrap();
    assert!(rollup.iter().any(|row| row.path == "establish"));
    assert!(rollup.iter().all(|row| row.path != "execute"));
}
