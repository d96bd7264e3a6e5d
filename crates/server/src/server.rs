//! The long-running protocol service: accept loop, connection greeters,
//! session execution on the engine worker pool, and graceful shutdown.
//!
//! ## Connection lifecycle
//!
//! ```text
//! accept → greeter thread:
//!   recv Hello (handshake_timeout)  ── timeout ──▶ reap, count
//!   draining?                       ── yes ──────▶ reply Draining
//!   mode hosted?                    ── no ───────▶ reply Unsupported
//!   adopt knobs, check_against      ── mismatch ─▶ reply Incompatible
//!   queue_depth ≥ cap?              ── yes ──────▶ reply Busy
//!   register session, reply Accept, hand channel to the engine
//! engine worker:
//!   session Running → Participant::run on the accepted channel
//!   → Completed (outcome recorded) | Failed | Dropped (drain deadline)
//! ```
//!
//! The greeter holds a single admission lock across the depth check, the
//! `Accept` reply, and the submit, so the configured cap can never be
//! oversubscribed by racing connections. The depth itself is the engine's
//! `engine_queue_depth` gauge — admission control and observability read
//! the same number.

use crate::config::{session_seed, HostedMode, ServerConfig};
use crate::proto::ServerReply;
use crate::registry::{SessionInfo, SessionRegistry, SessionState};
use ppdbscan::session::{Hello, Mode, Participant, PartyData};
use ppdbscan::CoreError;
use ppdbscan::ProtocolConfig;
use ppds_engine::{Engine, EngineConfig, EngineReport};
use ppds_observe::{MetricsRegistry, SpanRecorder};
use ppds_paillier::Keypair;
use ppds_smc::Party;
use ppds_transport::tcp::TcpChannel;
use ppds_transport::{Channel, TransportError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a graceful shutdown accomplished.
#[derive(Debug, Clone)]
pub struct DrainReport {
    /// Sessions that finished with an outcome (lifetime total).
    pub completed: u64,
    /// Sessions that aborted with a protocol or transport error.
    pub failed: u64,
    /// Sessions shed because the drain deadline passed while they waited.
    pub dropped: u64,
    /// Connections refused with `Draining` during the shutdown window.
    pub rejected_draining: u64,
    /// The engine's final task counts and busy time.
    pub engine: EngineReport,
}

/// State shared by the accept loop, greeters, session tasks, and the
/// operator endpoint. Deliberately does **not** hold the [`Engine`]: a
/// session task owning an engine handle would make the worker join itself
/// on the final drop. Greeters receive the engine handle separately and
/// are joined before the engine is shut down.
pub(crate) struct Shared {
    pub(crate) cfg: ServerConfig,
    pub(crate) registry: SessionRegistry,
    pub(crate) metrics: Arc<MetricsRegistry>,
    pub(crate) draining: AtomicBool,
    pub(crate) drain_deadline: Mutex<Option<Instant>>,
    pub(crate) stop_accepting: AtomicBool,
    pub(crate) stop_ops: AtomicBool,
    pub(crate) shutdown_requested: AtomicBool,
    /// Serializes depth-check → Accept → submit across greeters.
    admission: Mutex<()>,
    /// Long-lived Paillier keypairs keyed by modulus size: a hosted
    /// session reuses the server's hot key (with its fixed-base comb
    /// tables already attached) instead of paying keygen per connection.
    keypairs: Mutex<HashMap<usize, Keypair>>,
    /// Admission-checked session configs keyed by the client preamble's
    /// [`Hello::negotiation_fingerprint`]: a reconnecting client whose
    /// preamble content is unchanged skips knob adoption and the
    /// compatibility cross-check entirely. Only *successful* negotiations
    /// are cached — refusals stay cheap and a changed preamble always
    /// re-negotiates (different fingerprint, different entry). Holds at
    /// most [`NEGOTIATION_CACHE_ENTRIES`].
    negotiated: Mutex<HashMap<u64, ProtocolConfig>>,
}

/// Bound on the negotiation cache. The fingerprint covers everything the
/// client sent but its session id — its record count, any field id this
/// build does not know — so the peer chooses how many distinct keys there
/// are. A full cache is cleared rather than evicted one entry at a time: a
/// miss costs twelve field comparisons, not a handshake, and a deployment's
/// real clients send a handful of distinct preambles.
pub(crate) const NEGOTIATION_CACHE_ENTRIES: usize = 256;

/// A running protocol service. Construct with [`Server::start`]; tear down
/// with [`Server::shutdown`] (dropping without it leaves the accept thread
/// parked until process exit).
pub struct Server {
    shared: Arc<Shared>,
    engine: Arc<Engine>,
    listen_addr: SocketAddr,
    ops_addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    ops: Option<JoinHandle<()>>,
    greeters: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds both listeners, starts the engine worker pool, and begins
    /// accepting connections.
    pub fn start(cfg: ServerConfig) -> Result<Server, TransportError> {
        if cfg.hosted.is_empty() {
            return Err(TransportError::decode(
                "ServerConfig",
                "server needs at least one hosted mode",
            ));
        }
        let listener = TcpListener::bind(&cfg.listen)?;
        let ops_listener = TcpListener::bind(&cfg.ops)?;
        let listen_addr = listener.local_addr()?;
        let ops_addr = ops_listener.local_addr()?;

        // The engine runs unbounded; the *server* enforces the cap against
        // the engine's own queue-depth gauge, so a refused connection never
        // consumes an engine slot at all.
        let engine = Arc::new(Engine::start(EngineConfig::with_workers(
            cfg.workers.max(1),
        )));
        let metrics = engine.registry();
        // Pre-register the operator metrics so a scrape before any traffic
        // already shows them at zero.
        for name in [
            "server_sessions_accepted",
            "server_sessions_completed",
            "server_sessions_failed",
            "server_sessions_rejected_busy",
            "server_sessions_rejected_draining",
            "server_sessions_rejected_incompatible",
            "server_sessions_dropped_drain",
            "server_handshake_timeouts",
            "server_keypair_cache_hits",
            "server_keypair_cache_misses",
            "server_negotiation_cache_hits",
            "server_negotiation_cache_misses",
        ] {
            metrics.counter(name);
        }
        metrics.gauge("server_active_sessions");

        let shared = Arc::new(Shared {
            cfg,
            registry: SessionRegistry::new(),
            metrics,
            draining: AtomicBool::new(false),
            drain_deadline: Mutex::new(None),
            stop_accepting: AtomicBool::new(false),
            stop_ops: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            admission: Mutex::new(()),
            keypairs: Mutex::new(HashMap::new()),
            negotiated: Mutex::new(HashMap::new()),
        });

        let greeters: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = {
            let shared = Arc::clone(&shared);
            let engine = Arc::clone(&engine);
            let greeters = Arc::clone(&greeters);
            std::thread::Builder::new()
                .name("ppds-server-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &engine, &greeters))
                .expect("spawn accept thread")
        };
        let ops = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("ppds-server-ops".into())
                .spawn(move || crate::http::serve_ops(&ops_listener, &shared))
                .expect("spawn ops thread")
        };

        Ok(Server {
            shared,
            engine,
            listen_addr,
            ops_addr,
            accept: Some(accept),
            ops: Some(ops),
            greeters,
        })
    }

    /// The protocol listener's bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.listen_addr
    }

    /// The operator endpoint's bound address.
    pub fn ops_addr(&self) -> SocketAddr {
        self.ops_addr
    }

    /// The live metrics registry (shared with the engine).
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.shared.metrics)
    }

    /// Current registry rows, id order.
    pub fn sessions(&self) -> Vec<SessionInfo> {
        self.shared.registry.snapshot()
    }

    /// Whether an operator hit `/shutdown` on the ops endpoint. The
    /// binary's main loop polls this and then calls [`Server::shutdown`].
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::Relaxed)
    }

    /// Graceful shutdown: stop admitting (new connections get a typed
    /// `Draining` reply), let in-flight and already-queued sessions finish
    /// until `drain` elapses, shed whatever is still queued past the
    /// deadline, then join every thread and return what happened.
    ///
    /// Sessions already *running* past the deadline cannot be preempted;
    /// they finish or hit their read timeout — which is why
    /// [`ServerConfig::session_read_timeout`] bounds how long this call
    /// can block past the deadline.
    pub fn shutdown(mut self, drain: Duration) -> DrainReport {
        let deadline = Instant::now() + drain;
        *self.shared.drain_deadline.lock().unwrap() = Some(deadline);
        self.shared.draining.store(true, Ordering::SeqCst);

        // Drain: wait until every admitted task resolved or time is up.
        loop {
            let report = self.engine.report();
            if report.completed + report.failed >= report.submitted {
                break;
            }
            if Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }

        // Stop the accept loop (a wake-up connect unblocks `accept`).
        self.shared.stop_accepting.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.listen_addr);
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
        for handle in self.greeters.lock().unwrap().drain(..) {
            let _ = handle.join();
        }
        // Stop the operator endpoint the same way.
        self.shared.stop_ops.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.ops_addr);
        if let Some(handle) = self.ops.take() {
            let _ = handle.join();
        }

        // Greeters are joined, so ours is the last engine handle: consume
        // it to drain the queue (stragglers past the deadline self-drop)
        // and join the workers. The defensive arm keeps shutdown total if
        // that invariant is ever broken.
        let engine = match Arc::try_unwrap(self.engine) {
            Ok(engine) => engine.shutdown(),
            Err(arc) => arc.report(),
        };
        let counter = |name: &str| self.shared.metrics.counter(name).get();
        DrainReport {
            completed: counter("server_sessions_completed"),
            failed: counter("server_sessions_failed"),
            dropped: counter("server_sessions_dropped_drain"),
            rejected_draining: counter("server_sessions_rejected_draining"),
            engine,
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    engine: &Arc<Engine>,
    greeters: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if shared.stop_accepting.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.stop_accepting.load(Ordering::SeqCst) {
            return; // the wake-up connect, or a straggler past the drain
        }
        let shared = Arc::clone(shared);
        let engine = Arc::clone(engine);
        let handle = std::thread::Builder::new()
            .name("ppds-server-greeter".into())
            .spawn(move || greet(stream, &shared, &engine))
            .expect("spawn greeter");
        let mut slots = greeters.lock().unwrap();
        // Reap finished greeters so the vec tracks live threads only.
        let mut live = Vec::with_capacity(slots.len() + 1);
        for h in slots.drain(..) {
            if h.is_finished() {
                let _ = h.join();
            } else {
                live.push(h);
            }
        }
        live.push(handle);
        *slots = live;
    }
}

/// Whether `mode`'s in-session handshake requires equal dimensions — must
/// agree with the mode drivers' `HandshakeProfile`s so the preamble rejects
/// exactly what the session handshake would.
fn dim_must_match(mode: Mode) -> bool {
    mode != Mode::Vertical
}

/// One connection's preamble: classify, admit or refuse, hand off.
fn greet(stream: TcpStream, shared: &Arc<Shared>, engine: &Arc<Engine>) {
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "unknown".into());
    let Ok(mut chan) = TcpChannel::from_stream(stream) else {
        return;
    };
    let refuse = |chan: &mut TcpChannel, reply: ServerReply, counter: &str| {
        // Count before replying so a client that has read the refusal
        // already sees it reflected in a metrics scrape.
        shared.metrics.counter(counter).inc();
        let _ = chan.send(&reply);
    };
    if shared.draining.load(Ordering::SeqCst) {
        refuse(
            &mut chan,
            ServerReply::Draining,
            "server_sessions_rejected_draining",
        );
        return;
    }
    if chan
        .set_read_timeout(Some(shared.cfg.handshake_timeout))
        .is_err()
    {
        return;
    }
    let hello: Hello = match chan.recv() {
        Ok(hello) => hello,
        Err(TransportError::Timeout) => {
            shared.metrics.counter("server_handshake_timeouts").inc();
            return;
        }
        Err(_) => return,
    };

    let Some(mode) = hello.mode() else {
        refuse(
            &mut chan,
            ServerReply::Unsupported {
                detail: "preamble carries no known protocol mode".into(),
            },
            "server_sessions_rejected_incompatible",
        );
        return;
    };
    let Some(host) = shared.cfg.hosted.iter().find(|h| h.data.mode() == mode) else {
        refuse(
            &mut chan,
            ServerReply::Unsupported {
                detail: format!("mode {mode} is not hosted here"),
            },
            "server_sessions_rejected_incompatible",
        );
        return;
    };

    // Adopt the client's negotiable knobs, then require agreement on
    // everything protocol-semantic. The outcome is cached per preamble
    // fingerprint: a reconnecting client with unchanged content reuses the
    // admission-checked config and skips re-negotiation.
    let fingerprint = hello.negotiation_fingerprint();
    let cached = shared.negotiated.lock().unwrap().get(&fingerprint).copied();
    let scfg = if let Some(cfg) = cached {
        shared
            .metrics
            .counter("server_negotiation_cache_hits")
            .inc();
        cfg
    } else {
        shared
            .metrics
            .counter("server_negotiation_cache_misses")
            .inc();
        let scfg = host
            .cfg
            .with_batching(hello.batching().unwrap_or(host.cfg.batching))
            .with_packing(hello.packing().unwrap_or(host.cfg.packing))
            .with_pruning(hello.pruning().unwrap_or(host.cfg.pruning));
        let (n, dim) = host.data.shape();
        let mine = Hello::for_session(&scfg, mode, n, dim);
        if let Err(err) = mine.check_against(&hello, dim_must_match(mode)) {
            let reply = match err {
                CoreError::HandshakeMismatch {
                    field,
                    ours,
                    theirs,
                } => ServerReply::Incompatible {
                    field: field.into(),
                    ours,
                    theirs,
                },
                other => ServerReply::Unsupported {
                    detail: other.to_string(),
                },
            };
            refuse(&mut chan, reply, "server_sessions_rejected_incompatible");
            return;
        }
        let mut negotiated = shared.negotiated.lock().unwrap();
        if negotiated.len() >= NEGOTIATION_CACHE_ENTRIES {
            negotiated.clear();
        }
        negotiated.insert(fingerprint, scfg);
        scfg
    };

    // Admission: depth check, grant, Accept, submit — atomic under the
    // admission lock so racing greeters cannot oversubscribe the cap.
    let _admission = shared.admission.lock().unwrap();
    let depth = engine.queue_depth();
    if depth >= shared.cfg.queue_cap {
        refuse(
            &mut chan,
            ServerReply::Busy {
                depth: depth as u64,
                cap: shared.cfg.queue_cap as u64,
            },
            "server_sessions_rejected_busy",
        );
        return;
    }
    let sid = shared.registry.admit(
        hello.session_id().unwrap_or(0),
        mode,
        peer,
        scfg.batching,
        scfg.packing,
    );
    // Count before replying: a client that has read `Accept` must already
    // be visible in the gauges a concurrent scrape reads.
    shared.metrics.counter("server_sessions_accepted").inc();
    shared.metrics.gauge("server_active_sessions").inc();
    if chan.send(&ServerReply::Accept { session_id: sid }).is_err() {
        shared.registry.set_state(sid, SessionState::Failed);
        shared.metrics.counter("server_sessions_failed").inc();
        shared.metrics.gauge("server_active_sessions").dec();
        return;
    }
    let _ = chan.set_read_timeout(shared.cfg.session_read_timeout);

    let task_shared = Arc::clone(shared);
    let role = host.role;
    let data = host.data.clone();
    let submitted = engine.try_submit_task(
        "server-session",
        Box::new(move || run_hosted(&task_shared, chan, sid, scfg, role, data)),
    );
    if submitted.is_err() {
        // Unreachable while the server owns the engine (it runs unbounded),
        // but never strand an accepted client silently.
        shared.registry.set_state(sid, SessionState::Dropped);
        shared.metrics.gauge("server_active_sessions").dec();
        shared
            .metrics
            .counter("server_sessions_dropped_drain")
            .inc();
    }
}

/// The admitted session's worker-side body.
fn run_hosted(
    shared: &Arc<Shared>,
    mut chan: TcpChannel,
    sid: u64,
    cfg: ProtocolConfig,
    role: Party,
    data: PartyData,
) -> Result<(), String> {
    if let Some(deadline) = *shared.drain_deadline.lock().unwrap() {
        if Instant::now() >= deadline {
            shared.registry.set_state(sid, SessionState::Dropped);
            shared
                .metrics
                .counter("server_sessions_dropped_drain")
                .inc();
            shared.metrics.gauge("server_active_sessions").dec();
            return Err(format!("session {sid} dropped: drain deadline passed"));
        }
    }
    shared.registry.set_state(sid, SessionState::Running);
    let mode = data.mode();
    let keypair = hot_keypair(shared, cfg.key_bits);
    let mut participant = Participant::new(cfg)
        .role(role)
        .data(data)
        .seed(session_seed(shared.cfg.base_seed, sid))
        .keypair(keypair)
        .expect("hot keypair is generated at cfg.key_bits");
    if shared.cfg.record_traces {
        participant = participant.trace(SpanRecorder::new());
    }
    let result = participant.run(&mut chan);
    shared.metrics.gauge("server_active_sessions").dec();
    match result {
        Ok(outcome) => {
            shared
                .metrics
                .record_traffic(mode.name(), outcome.output.traffic);
            shared
                .registry
                .finish(sid, SessionState::Completed, outcome.trace);
            shared.metrics.counter("server_sessions_completed").inc();
            Ok(())
        }
        Err(err) => {
            shared.registry.finish(sid, SessionState::Failed, None);
            shared.metrics.counter("server_sessions_failed").inc();
            Err(format!("session {sid} ({mode}): {err}"))
        }
    }
}

/// Returns the server's long-lived keypair for `key_bits`, generating it
/// (and attaching the fixed-base exponentiation combs) on first use. Every
/// later session at the same security parameter skips keygen entirely —
/// the dominant per-connection setup cost for realistic key sizes.
///
/// The cache lock is held across generation on purpose: two racing first
/// sessions would otherwise both pay keygen, and one result would be
/// discarded. Hits and misses surface as
/// `server_keypair_cache_hits` / `server_keypair_cache_misses`.
///
/// Determinism: the key derives from `base_seed` and `key_bits` only, so a
/// restarted server with the same config reuses the same key material —
/// session outcomes never depend on key bytes, but operators diffing
/// traces across restarts appreciate stable moduli.
fn hot_keypair(shared: &Shared, key_bits: usize) -> Keypair {
    let mut cache = shared.keypairs.lock().unwrap();
    if let Some(kp) = cache.get(&key_bits) {
        shared.metrics.counter("server_keypair_cache_hits").inc();
        return kp.clone();
    }
    shared.metrics.counter("server_keypair_cache_misses").inc();
    let mut rng = StdRng::seed_from_u64(session_seed(
        shared.cfg.base_seed ^ 0x4B45_5947_454E_2121, // "KEYGEN!!"
        key_bits as u64,
    ));
    let keypair = Keypair::generate(key_bits, &mut rng);
    cache.insert(key_bits, keypair.clone());
    keypair
}

/// A ready-made [`HostedMode`] helper for demos and the binary: hosts
/// `data` as `role` under `cfg`.
pub fn hosted(cfg: ProtocolConfig, role: Party, data: PartyData) -> HostedMode {
    HostedMode { cfg, role, data }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppds_dbscan::{DbscanParams, Point};
    use ppds_transport::WireEncode;

    /// A current-version preamble plus one field id no build knows, which
    /// `check_against` ignores and the fingerprint hashes.
    struct WithUnknownField(Hello, u64);

    impl WireEncode for WithUnknownField {
        fn encode(&self, out: &mut Vec<u8>) {
            let start = out.len();
            self.0.encode(out);
            // Layout: u32 version, u32 field count, then (u8 id, u64 value)*.
            let count = &mut out[start + 4..start + 8];
            let bumped = u32::from_le_bytes(count.try_into().unwrap()) + 1;
            count.copy_from_slice(&bumped.to_le_bytes());
            0xEEu8.encode(out);
            self.1.encode(out);
        }
    }

    #[test]
    fn negotiation_cache_is_bounded_on_peer_chosen_fingerprints() {
        let mut cfg = ProtocolConfig::new(
            DbscanParams {
                eps_sq: 8,
                min_pts: 2,
            },
            10,
        );
        cfg.key_bits = 64;
        let points = vec![Point::new(vec![0, 0]), Point::new(vec![1, 1])];
        let server = Server::start(ServerConfig::new(vec![hosted(
            cfg,
            Party::Bob,
            PartyData::Horizontal(points),
        )]))
        .expect("server starts");
        let addr = server.local_addr();
        let timeout = Duration::from_secs(5);

        // Negotiates one preamble and hangs up; the admitted session fails
        // on the closed socket, which is not what is under test.
        let negotiate = |unknown: u64| {
            let hello = Hello::for_session(&cfg, Mode::Horizontal, 2, 2);
            let mut chan = TcpChannel::connect_timeout(&addr, timeout).unwrap();
            chan.set_read_timeout(Some(timeout)).unwrap();
            chan.send(&WithUnknownField(hello, unknown)).unwrap();
            match chan.recv::<ServerReply>().unwrap() {
                ServerReply::Accept { .. } | ServerReply::Busy { .. } => {}
                other => panic!("the preamble is compatible, got {other:?}"),
            }
        };
        let cached = || server.shared.negotiated.lock().unwrap().len();

        let distinct = NEGOTIATION_CACHE_ENTRIES as u64 + 40;
        for unknown in 0..distinct {
            negotiate(unknown);
            assert!(
                cached() <= NEGOTIATION_CACHE_ENTRIES,
                "{} entries",
                cached()
            );
        }
        let metrics = server.metrics();
        let misses = metrics.counter("server_negotiation_cache_misses");
        let hits = metrics.counter("server_negotiation_cache_hits");
        assert_eq!((misses.get(), hits.get()), (distinct, 0));
        // Clearing did not break the cache: the last preamble still hits.
        negotiate(distinct - 1);
        assert_eq!((misses.get(), hits.get()), (distinct, 1));
        server.shutdown(timeout);
    }
}
