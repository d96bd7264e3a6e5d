//! The four session workloads: what each one is, how its inputs are made
//! from the seed, how one session runs, and the closed-loop timed phase.
//!
//! The program under test is reached only through its public surface:
//! [`Participant::run`] over a [`TcpChannel`], and [`ppds_server::Server`]
//! with [`ppds_server::run_session`].

use crate::channels::{Link, ShapedChannel, SocketTimes, TimedChannel};
use ppdbscan::session::{Participant, PartyData, SessionOutcome};
use ppdbscan::{ProtocolConfig, VerticalPartition};
use ppds_dbscan::datagen::split_alternating;
use ppds_dbscan::{
    band_width, coarse_cell, dbscan, dbscan_with_external_density, Clustering, CoarseGrid,
    DbscanParams, Point, Pruning,
};
use ppds_observe::SpanRecorder;
use ppds_paillier::Keypair;
use ppds_server::{hosted, Server, ServerConfig};
use ppds_smc::compare::Comparator;
use ppds_smc::{BackendKind, Party};
use ppds_transport::tcp::TcpChannel;
use ppds_transport::{Channel, MetricsSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Density parameters of every workload (the E13 sweep's).
pub const PARAMS: DbscanParams = DbscanParams {
    eps_sq: 8,
    min_pts: 3,
};

/// Client-side deadline for connecting to and being admitted by the server.
const OPEN_TIMEOUT: Duration = Duration::from_secs(20);

/// Which protocol a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Vertical mode, sharing backend, grid pruning.
    Vertical,
    /// Enhanced mode, Paillier, DGK comparator, packing, grid pruning.
    Enhanced,
    /// Horizontal mode, sharing backend, exhaustive candidates.
    Horizontal,
    /// Horizontal → vertical → vertical → enhanced against a hosted server.
    ServerMixed,
}

/// One workload: a fixed configuration whose inputs vary with the seed.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    pub kind: Kind,
    /// Records in the joint dataset.
    pub n: usize,
    pub key_bits: usize,
    pub link: Option<Link>,
    /// Which draws of the generator the workload takes (see
    /// [`pick_draw`]); `None` takes the seed's own draw. At n = 10⁴ the
    /// counts vary by well under a percent, and the all-pairs workload's
    /// work does not depend on geometry.
    pub accept: Option<fn(&Work) -> bool>,
    /// Warm-up sessions (server: warm-up cycles) inside each set-up.
    pub warmups: usize,
    /// Flight-recorder slots per party for the traced pass.
    pub trace_slots: usize,
    /// Key size of the Paillier and Paillier-backed smc direct-call rows.
    pub layer_key_bits: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "vertical_sharing_grid_10k",
        why: "n=10^4 over loopback: ~20k 60-byte frames, crypto ~free, so per-frame cost, driver and grid work set the time",
        kind: Kind::Vertical,
        n: 10_000,
        key_bits: 256,
        link: None,
        accept: None,
        warmups: 2,
        trace_slots: 1 << 17,
        layer_key_bits: 1024,
    },
    Spec {
        name: "enhanced_paillier_dgk_12",
        why: "fully cryptographic path at 1024-bit keys (2048-bit n^2): nearly all time is bigint kernels under Paillier and DGK",
        kind: Kind::Enhanced,
        n: 12,
        key_bits: 1024,
        link: None,
        accept: Some(enhanced_12_work),
        warmups: 1,
        trace_slots: 1 << 14,
        layer_key_bits: 1024,
    },
    Spec {
        name: "horizontal_sharing_exh_metro_200",
        why: "all-pairs horizontal over a shaped 2 ms / 12.5 MB/s link: few large frames, wall time is link-bound, CPU is not",
        kind: Kind::Horizontal,
        n: 200,
        key_bits: 256,
        link: Some(Link::METRO),
        accept: None,
        warmups: 4,
        trace_slots: 1 << 16,
        layer_key_bits: 1024,
    },
    Spec {
        name: "server_mixed_c2",
        why: "2 closed-loop clients cycling 3 modes at n=200 against the hosted server: short sessions, so per-session fixed cost sets the time",
        kind: Kind::ServerMixed,
        n: 200,
        key_bits: 256,
        link: None,
        accept: Some(server_200_work),
        warmups: 2,
        trace_slots: 1 << 14,
        layer_key_bits: 1024,
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Spec {
    /// The `--smoke` variant: a tenth of the records (at least 12), 512-bit
    /// keys where the workload is cryptographic, one warm-up.
    pub fn smoke(mut self) -> Spec {
        if self.n > 12 {
            self.accept = None;
        }
        self.n = (self.n / 10).max(12);
        self.key_bits = self.key_bits.min(512);
        self.layer_key_bits = 512;
        self.trace_slots /= 8;
        self.warmups = 1;
        self
    }

    /// The publicly agreed configuration on a lattice of half-width `bound`.
    /// All three legs of the server workload share one.
    fn config(&self, bound: i64) -> ProtocolConfig {
        let grid = Pruning::Grid { coarseness: 1 };
        let base = ProtocolConfig::new(PARAMS, bound).with_batching(true);
        let mut cfg = match self.kind {
            Kind::Enhanced => ProtocolConfig {
                comparator: Comparator::Dgk,
                ..base
            }
            .with_packing(true)
            .with_pruning(grid),
            Kind::Horizontal => base.with_backend(BackendKind::Sharing),
            Kind::Vertical | Kind::ServerMixed => {
                base.with_backend(BackendKind::Sharing).with_pruning(grid)
            }
        };
        cfg.key_bits = self.key_bits;
        cfg
    }
}

/// The E13 constant-density generator (`experiments.rs::scaled_uniform`):
/// `n` uniform lattice points on a square of side `⌈4√n⌉`, so the number of
/// Eps-neighbours per point does not grow with `n`.
pub fn scaled_uniform(n: usize, seed: u64) -> (Vec<Point>, i64) {
    let side = (4.0 * (n as f64).sqrt()).ceil() as i64;
    let mut r = StdRng::seed_from_u64(seed);
    let points = (0..n)
        .map(|_| Point::new(vec![r.random_range(0..=side), r.random_range(0..=side)]))
        .collect();
    (points, side)
}

/// What a dataset asks of the secure protocols, from geometry alone. Wire
/// frames, wire bytes and cryptographic work are (close to) functions of
/// these counts, so two datasets that agree on them cost the same whatever
/// their coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    /// Over all records, the other records in the 3×3 block of coarse
    /// cells around each: the pairs the vertical mode compares, and (per
    /// party) the candidate lists the horizontal mode serves.
    pub candidates: usize,
    /// The remaining counts are the enhanced protocol's (§5,
    /// repeated-minimum selection, grid candidates), summed over both query
    /// directions. Core-point tests: a point first labelled noise is tested
    /// again when a cluster later reaches it.
    pub tests: usize,
    /// Tests that engage the peer: `1 ≤ k = MinPts − own ≤ candidates`.
    pub engaged: usize,
    /// Masked-distance rows served over the engaged tests (their candidate
    /// counts, summed).
    pub rows: usize,
    /// Share comparisons: `k` minimum scans over the shrinking candidate
    /// list plus one threshold comparison per engaged test.
    pub comparisons: usize,
}

/// Counts a dataset's [`Work`]: one pass over the joint coarse grid, then a
/// plaintext replay of the querying party's DBSCAN loop (Algorithm 3) in
/// both directions, counting what each core-point test would ask of the
/// secure protocol.
pub fn work(points: &[Point]) -> Work {
    let width = band_width(PARAMS.eps_sq, 1);
    let cell = |p: &Point| coarse_cell(p.coords(), width);
    let within = |p: &Point, q: &Point| ppds_dbscan::dist_sq(p, q) <= PARAMS.eps_sq;
    let joint = CoarseGrid::from_points(points, width);
    let mut work = Work {
        candidates: points
            .iter()
            .map(|p| joint.candidates(&cell(p)).len() - 1)
            .sum(),
        tests: 0,
        engaged: 0,
        rows: 0,
        comparisons: 0,
    };
    let (first, second) = split_alternating(points);
    for (own, peer) in [(&first, &second), (&second, &first)] {
        let grid = CoarseGrid::from_points(peer, width);
        let neighbours = |i: usize| -> Vec<usize> {
            (0..own.len())
                .filter(|&j| within(&own[i], &own[j]))
                .collect()
        };
        let mut core_test = |i: usize, local: usize| {
            let c = grid.candidates(&cell(&own[i])).len();
            let k = PARAMS.min_pts.saturating_sub(local);
            work.tests += 1;
            if (1..=c).contains(&k) {
                work.engaged += 1;
                work.rows += c;
                work.comparisons += (0..k).map(|t| c - 1 - t).sum::<usize>() + 1;
            }
            local + peer.iter().filter(|q| within(&own[i], q)).count() >= PARAMS.min_pts
        };
        // None = unclassified, Some(false) = noise, Some(true) = clustered.
        let mut state: Vec<Option<bool>> = vec![None; own.len()];
        for i in 0..own.len() {
            if state[i].is_some() {
                continue;
            }
            let seeds = neighbours(i);
            if !core_test(i, seeds.len()) {
                state[i] = Some(false);
                continue;
            }
            let mut queue: VecDeque<usize> = seeds.iter().copied().filter(|&s| s != i).collect();
            for &s in &seeds {
                state[s] = Some(true);
            }
            while let Some(current) = queue.pop_front() {
                let reached = neighbours(current);
                if core_test(current, reached.len()) {
                    for &r in &reached {
                        if state[r].is_none() {
                            queue.push_back(r);
                        }
                        state[r] = Some(true);
                    }
                }
            }
        }
    }
    work
}

/// The generator seed of the dataset for `seed`: the first draw of the
/// seed's stream whose [`Work`] the workload accepts. Small uniform draws
/// differ several-fold in secure work (8 to 43 comparisons at n = 12;
/// ±9 % at n = 200), which would drown any change to the program and make
/// the wire metrics differ from seed to seed; a workload that narrows the
/// work it accepts gets different points for every seed and the same work.
///
/// The search is the benchmark's bookkeeping, not the system's set-up: it
/// runs once per run, untimed, and [`prepare`] generates the points from
/// the seed it returns.
pub fn pick_draw(spec: &Spec, seed: u64) -> u64 {
    const MAX_DRAWS: u64 = 1_000_000;
    let Some(accept) = spec.accept else {
        return seed;
    };
    (0..MAX_DRAWS)
        .map(|draw| seed.wrapping_add(draw.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .find(|&draw_seed| accept(&work(&scaled_uniform(spec.n, draw_seed).0)))
        .unwrap_or_else(|| panic!("{}: no acceptable draw in {MAX_DRAWS} tries", spec.name))
}

/// One common [`Work`] among uniform draws of 12 points (one draw in 140
/// has it), on the light side — the median draw needs 18 comparisons — so
/// that a run holds a dozen sessions, not six.
fn enhanced_12_work(w: &Work) -> bool {
    (w.tests, w.engaged, w.rows, w.comparisons) == (12, 5, 9, 10)
}

/// Within a percent of the medians over uniform draws of 200 points (427
/// comparisons, 884 candidates); about one draw in 70.
fn server_200_work(w: &Work) -> bool {
    (423..=431).contains(&w.comparisons) && (876..=892).contains(&w.candidates)
}

/// One party of a two-party session, ready to be turned into a
/// [`Participant`] any number of times.
pub struct Side {
    cfg: ProtocolConfig,
    role: Party,
    data: PartyData,
    keypair: Keypair,
    seed: u64,
    /// The labels plaintext DBSCAN gives this party.
    pub reference: Clustering,
}

impl Side {
    fn participant(&self, recorder: Option<usize>) -> Participant {
        let p = Participant::new(self.cfg)
            .role(self.role)
            .data(self.data.clone())
            .seed(self.seed)
            .keypair(self.keypair.clone())
            .expect("the keypair was generated at cfg.key_bits");
        match recorder {
            Some(slots) => p.trace(SpanRecorder::with_capacity(slots)),
            None => p,
        }
    }

    /// Whether `outcome` carries exactly the plaintext labels.
    pub fn agrees(&self, outcome: &Result<SessionOutcome, String>) -> bool {
        matches!(outcome, Ok(o) if o.output.clustering == self.reference)
    }
}

/// Both halves of a two-party workload plus the socket they meet on.
pub struct Pair {
    pub points: Vec<Point>,
    pub alice: Side,
    pub bob: Side,
    listener: TcpListener,
    addr: SocketAddr,
    link: Option<Link>,
}

/// The hosted server, and what a client needs for each leg of its cycle.
pub struct Hosted {
    pub points: Vec<Point>,
    server: Option<Server>,
    pub addr: SocketAddr,
    /// Client halves in cycle order: horizontal, vertical, vertical, enhanced.
    pub cycle: Vec<Side>,
}

impl Hosted {
    pub fn server(&self) -> &Server {
        self.server.as_ref().expect("server runs until drop")
    }
}

impl Drop for Hosted {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown(Duration::from_secs(5));
        }
    }
}

/// A workload after set-up.
pub enum Prepared {
    Pair(Box<Pair>),
    Hosted(Box<Hosted>),
}

/// Keys come from a fixed seed per key size, not from `--seed`: prime
/// search time is luck, and a key is not an input whose shape the protocols
/// depend on. Set-up still pays for key generation, so a slower keygen
/// shows in `setup_s`; a luckier seed does not.
pub fn keypair(key_bits: usize, party: u64) -> Keypair {
    let mut rng = StdRng::seed_from_u64(0x6B65_7973 ^ (key_bits as u64) << 8 ^ party);
    Keypair::generate(key_bits, &mut rng)
}

/// Both sides of a session from their data views and reference labels:
/// Alice and Bob get the fixed key of their party and seeds derived from
/// the dataset's.
fn sides(
    cfg: ProtocolConfig,
    seed: u64,
    (alice_data, alice_ref): (PartyData, Clustering),
    (bob_data, bob_ref): (PartyData, Clustering),
) -> (Side, Side) {
    let side = |role, party: u64, data, reference| Side {
        cfg,
        role,
        data,
        keypair: keypair(cfg.key_bits, party),
        seed: seed.wrapping_mul(2).wrapping_add(party),
        reference,
    };
    (
        side(Party::Alice, 0, alice_data, alice_ref),
        side(Party::Bob, 1, bob_data, bob_ref),
    )
}

/// Everything before the first warm-up session: inputs from the seed,
/// plaintext reference labels, keys, and the listener or server.
pub fn prepare(spec: &Spec, seed: u64) -> Prepared {
    let (points, bound) = scaled_uniform(spec.n, seed);
    let cfg = spec.config(bound);
    let own = |mine: &[Point], theirs: &[Point]| dbscan_with_external_density(mine, theirs, PARAMS);

    let (alice, bob) = match spec.kind {
        Kind::Vertical => {
            let vertical = VerticalPartition::split(&points, 1);
            let joint = dbscan(&points, PARAMS);
            sides(
                cfg,
                seed,
                (PartyData::Vertical(vertical.alice), joint.clone()),
                (PartyData::Vertical(vertical.bob), joint),
            )
        }
        Kind::Enhanced | Kind::Horizontal => {
            let (first, second) = split_alternating(&points);
            let (first_ref, second_ref) = (own(&first, &second), own(&second, &first));
            let view = match spec.kind {
                Kind::Enhanced => PartyData::Enhanced,
                _ => PartyData::Horizontal,
            };
            sides(
                cfg,
                seed,
                (view(first), first_ref),
                (view(second), second_ref),
            )
        }
        Kind::ServerMixed => return Prepared::Hosted(Box::new(host(cfg, seed, points))),
    };
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback listener binds");
    let addr = listener
        .local_addr()
        .expect("bound listener has an address");
    Prepared::Pair(Box::new(Pair {
        points,
        alice,
        bob,
        listener,
        addr,
        link: spec.link,
    }))
}

/// Starts the server on the second halves of `points` and prepares the
/// client's four legs on the first halves. One key, one reference per
/// mode: the legs share them.
fn host(cfg: ProtocolConfig, seed: u64, points: Vec<Point>) -> Hosted {
    let (first, second) = split_alternating(&points);
    let vertical = VerticalPartition::split(&points, 1);
    let server = Server::start(
        ServerConfig::new(vec![
            hosted(cfg, Party::Bob, PartyData::Horizontal(second.clone())),
            hosted(cfg, Party::Bob, PartyData::Vertical(vertical.bob)),
            hosted(cfg, Party::Bob, PartyData::Enhanced(second.clone())),
        ])
        .with_workers(2)
        .with_queue_cap(16)
        .with_base_seed(0x5E55_10D5)
        .with_traces(false),
    )
    .expect("server binds two loopback ports");
    let client_key = keypair(cfg.key_bits, 0);
    let leg = |data, reference: &Clustering| Side {
        cfg,
        role: Party::Alice,
        data,
        keypair: client_key.clone(),
        seed,
        reference: reference.clone(),
    };
    let own = dbscan_with_external_density(&first, &second, PARAMS);
    let joint = dbscan(&points, PARAMS);
    let cycle = vec![
        leg(PartyData::Horizontal(first.clone()), &own),
        leg(PartyData::Vertical(vertical.alice.clone()), &joint),
        leg(PartyData::Vertical(vertical.alice), &joint),
        leg(PartyData::Enhanced(first), &own),
    ];
    Hosted {
        points,
        addr: server.local_addr(),
        server: Some(server),
        cycle,
    }
}

/// One finished two-party session.
pub struct PairRun {
    /// Dial to both outcomes held.
    pub wall: Duration,
    pub alice: Result<SessionOutcome, String>,
    pub bob: Result<SessionOutcome, String>,
    /// How long Alice's `Participant::run` took on its own: what her
    /// top-level spans should add up to.
    pub alice_run: Duration,
    /// Socket-boundary times of (Alice, Bob); traced sessions only.
    pub sockets: Option<(SocketTimes, SocketTimes)>,
}

/// Runs Bob on a scoped thread and Alice on this one. Each party's channel
/// is consumed by its `finish` as soon as that party returns, so a failed
/// party closes its socket and the other sees a disconnect, not a hang.
fn drive<CA: Channel, CB: Channel + Send>(
    t0: Instant,
    alice: Participant,
    bob: Participant,
    (mut chan_a, mut chan_b): (CA, CB),
    finish_a: impl FnOnce(CA) -> Option<SocketTimes>,
    finish_b: impl FnOnce(CB) -> Option<SocketTimes> + Send,
) -> PairRun {
    std::thread::scope(|scope| {
        let bob_thread = scope.spawn(move || {
            let outcome = bob.run(&mut chan_b);
            (outcome, finish_b(chan_b))
        });
        let run_started = Instant::now();
        let alice_outcome = alice.run(&mut chan_a);
        let alice_run = run_started.elapsed();
        let alice_times = finish_a(chan_a);
        let (bob_outcome, bob_times) = bob_thread.join().expect("Bob's thread does not panic");
        PairRun {
            wall: t0.elapsed(),
            alice: alice_outcome.map_err(|e| e.to_string()),
            bob: bob_outcome.map_err(|e| e.to_string()),
            alice_run,
            sockets: alice_times.zip(bob_times),
        }
    })
}

impl Pair {
    /// One session over a fresh connection on the workload's link.
    /// `trace_slots` switches the flight recorder on for both parties and
    /// times the socket boundary.
    pub fn run(&self, trace_slots: Option<usize>) -> PairRun {
        self.run_on(self.link, trace_slots)
    }

    /// [`Pair::run`] on a link of the caller's choosing. A warm-up runs on
    /// the bare loopback socket whatever the workload's link: it touches
    /// the same code, allocator and socket paths without paying the shaped
    /// link's sleeps.
    fn run_on(&self, link: Option<Link>, trace_slots: Option<usize>) -> PairRun {
        // Built before the clock starts: a session is timed from dial to
        // both outcomes held, not from cloning its inputs.
        let alice = self.alice.participant(trace_slots);
        let bob = self.bob.participant(trace_slots);
        let t0 = Instant::now();
        // The listen backlog completes the dial before `accept` is called.
        let dialled = TcpChannel::connect(self.addr)
            .and_then(|a| TcpChannel::accept(&self.listener).map(|b| (a, b)));
        let chans = match dialled {
            Ok(chans) => chans,
            Err(e) => {
                let failed = || Err(format!("dial failed: {e}"));
                return PairRun {
                    wall: t0.elapsed(),
                    alice: failed(),
                    bob: failed(),
                    alice_run: Duration::ZERO,
                    sockets: None,
                };
            }
        };
        fn untimed<C>(_: C) -> Option<SocketTimes> {
            None
        }
        fn times<C: Channel>(chan: TimedChannel<C>) -> Option<SocketTimes> {
            Some(chan.into_times())
        }
        fn timed<C: Channel>((a, b): (C, C)) -> (TimedChannel<C>, TimedChannel<C>) {
            (TimedChannel::new(a), TimedChannel::new(b))
        }
        match (link, trace_slots) {
            (None, None) => drive(t0, alice, bob, chans, untimed, untimed),
            (Some(link), None) => {
                let chans = ShapedChannel::pair(chans.0, chans.1, link);
                drive(t0, alice, bob, chans, untimed, untimed)
            }
            (None, Some(_)) => drive(t0, alice, bob, timed(chans), times, times),
            (Some(link), Some(_)) => {
                let chans = ShapedChannel::pair(chans.0, chans.1, link);
                drive(t0, alice, bob, timed(chans), times, times)
            }
        }
    }

    pub fn ok(&self, run: &PairRun) -> bool {
        self.alice.agrees(&run.alice) && self.bob.agrees(&run.bob)
    }
}

/// One finished client session against the hosted server.
pub struct ClientRun {
    pub wall: Duration,
    pub outcome: Result<SessionOutcome, String>,
    pub sockets: Option<SocketTimes>,
    /// Connect + preamble → `Accept`; traced sessions only.
    pub open: Option<Duration>,
}

impl Hosted {
    /// Leg `leg` of the client cycle, through `ppds_server::run_session`.
    pub fn run(&self, leg: usize) -> ClientRun {
        let participant = self.cycle[leg].participant(None);
        let t0 = Instant::now();
        let outcome = ppds_server::run_session(&self.addr, participant, 0, OPEN_TIMEOUT)
            .map(|(_, outcome)| outcome)
            .map_err(|e| e.to_string());
        ClientRun {
            wall: t0.elapsed(),
            outcome,
            sockets: None,
            open: None,
        }
    }

    /// The same leg with the client's flight recorder on and its socket
    /// timed: `open_session`, then the participant over the admitted
    /// channel inside a [`TimedChannel`].
    pub fn run_traced(&self, leg: usize, trace_slots: usize) -> ClientRun {
        let participant = self.cycle[leg].participant(Some(trace_slots));
        let t0 = Instant::now();
        let session = match ppds_server::open_session(&self.addr, &participant, 0, OPEN_TIMEOUT) {
            Ok(session) => session,
            Err(e) => {
                return ClientRun {
                    wall: t0.elapsed(),
                    outcome: Err(e.to_string()),
                    sockets: None,
                    open: None,
                }
            }
        };
        let open = t0.elapsed();
        let mut chan = TimedChannel::new(session.into_channel());
        let outcome = participant.run(&mut chan).map_err(|e| e.to_string());
        ClientRun {
            wall: t0.elapsed(),
            outcome,
            sockets: Some(chan.into_times()),
            open: Some(open),
        }
    }

    pub fn ok(&self, leg: usize, run: &ClientRun) -> bool {
        matches!(&run.outcome, Ok(o) if o.output.clustering == self.cycle[leg].reference)
    }
}

/// One stretch of the timed phase as the measuring thread saw it — whole
/// sessions (server workload: whole client cycles of its own) adding up to
/// at least [`MIN_WINDOW`] — with everything the process did meanwhile.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub wall: f64,
    /// Process CPU time spent, all threads.
    pub cpu: f64,
    /// Sessions finished by any client.
    pub sessions: u64,
    /// Records clustered by sessions that finished correctly.
    pub records: u64,
}

/// What the timed phase counted.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Seconds per session, one sample per session (server workload: one
    /// per client cycle, the cycle's wall time ÷ its four sessions — the
    /// four legs differ, so single sessions have no one median).
    pub samples: Vec<f64>,
    /// The measuring thread's windows, back to back over the phase.
    pub windows: Vec<Window>,
    pub attempted: u64,
    pub failed: u64,
    pub wall: f64,
    /// Client/Alice-side traffic summed over completed sessions.
    pub traffic: MetricsSnapshot,
    pub completed: u64,
}

/// Sessions and records finished so far by every client of the phase.
#[derive(Default)]
struct Progress {
    sessions: AtomicU64,
    records: AtomicU64,
}

impl Phase {
    fn note(&mut self, ok: bool, n: usize, traffic: Option<MetricsSnapshot>, all: &Progress) {
        self.attempted += 1;
        all.sessions.fetch_add(1, Ordering::Relaxed);
        match traffic {
            Some(traffic) if ok => {
                self.completed += 1;
                self.traffic += traffic;
                all.records.fetch_add(n as u64, Ordering::Relaxed);
            }
            _ => self.failed += 1,
        }
    }

    fn absorb(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.traffic += other.traffic;
        self.completed += other.completed;
    }
}

/// Shortest [`Window`]: long enough that the server workload's two clients
/// finish some eighty sessions in one, so the rate of a window is not
/// quantised by whose session happened to end inside it.
const MIN_WINDOW: Duration = Duration::from_millis(250);

/// Cuts the phase into [`Window`]s at sample boundaries.
struct WindowCutter<'a> {
    all: &'a Progress,
    opened: (Instant, f64, u64, u64),
}

impl<'a> WindowCutter<'a> {
    fn reading(all: &Progress) -> (Instant, f64, u64, u64) {
        (
            Instant::now(),
            crate::sysinfo::cpu_seconds(),
            all.sessions.load(Ordering::Relaxed),
            all.records.load(Ordering::Relaxed),
        )
    }

    fn new(all: &'a Progress) -> Self {
        WindowCutter {
            all,
            opened: Self::reading(all),
        }
    }

    /// Ends the open window at "now" if it is at least `shortest` long.
    fn cut(&mut self, shortest: Duration) -> Option<Window> {
        if self.opened.0.elapsed() < shortest {
            return None;
        }
        let now = Self::reading(self.all);
        let window = Window {
            wall: (now.0 - self.opened.0).as_secs_f64(),
            cpu: now.1 - self.opened.1,
            sessions: now.2 - self.opened.2,
            records: now.3 - self.opened.3,
        };
        self.opened = now;
        Some(window)
    }
}

impl Prepared {
    pub fn points(&self) -> &[Point] {
        match self {
            Prepared::Pair(pair) => &pair.points,
            Prepared::Hosted(hosted) => &hosted.points,
        }
    }

    /// Sessions in one warm-up round: one, or one client cycle.
    pub fn sessions_per_warm_up(&self) -> u64 {
        match self {
            Prepared::Pair(_) => 1,
            Prepared::Hosted(hosted) => hosted.cycle.len() as u64,
        }
    }

    /// Warm-up: `sessions` sessions (server: cycles) whose results are
    /// checked but not timed. Returns how many failed.
    pub fn warm_up(&self, sessions: usize) -> u64 {
        let mut failed = 0;
        for _ in 0..sessions {
            match self {
                Prepared::Pair(pair) => {
                    let run = pair.run_on(None, None);
                    failed += u64::from(!pair.ok(&run));
                }
                Prepared::Hosted(hosted) => {
                    for leg in 0..hosted.cycle.len() {
                        failed += u64::from(!hosted.ok(leg, &hosted.run(leg)));
                    }
                }
            }
        }
        failed
    }

    /// The timed phase: closed loop, tracing off, sessions back to back for
    /// at least `seconds` (and at least `min_samples` samples).
    pub fn measure(&self, seconds: f64, min_samples: usize) -> Phase {
        let n = self.points().len();
        let t0 = Instant::now();
        let more = |samples: usize| samples < min_samples || t0.elapsed().as_secs_f64() < seconds;
        let all = Progress::default();
        let mut phase = match self {
            Prepared::Pair(pair) => {
                let mut phase = Phase::default();
                let mut cutter = WindowCutter::new(&all);
                while more(phase.samples.len()) {
                    let run = pair.run(None);
                    let traffic = run.alice.as_ref().ok().map(|o| o.output.traffic);
                    phase.note(pair.ok(&run), n, traffic, &all);
                    phase.samples.push(run.wall.as_secs_f64());
                    phase.windows.extend(cutter.cut(MIN_WINDOW));
                }
                if phase.windows.is_empty() {
                    phase.windows.extend(cutter.cut(Duration::ZERO));
                }
                phase
            }
            Prepared::Hosted(hosted) => {
                // Both clients run this; only the calling thread's cuts windows.
                let client = |cut_windows: bool| {
                    let mut phase = Phase::default();
                    let mut cutter = WindowCutter::new(&all);
                    while more(phase.samples.len()) {
                        let cycle_start = Instant::now();
                        for leg in 0..hosted.cycle.len() {
                            let run = hosted.run(leg);
                            let traffic = run.outcome.as_ref().ok().map(|o| o.output.traffic);
                            phase.note(hosted.ok(leg, &run), n, traffic, &all);
                        }
                        let per_session =
                            cycle_start.elapsed().as_secs_f64() / hosted.cycle.len() as f64;
                        phase.samples.push(per_session);
                        if cut_windows {
                            phase.windows.extend(cutter.cut(MIN_WINDOW));
                        }
                    }
                    if cut_windows && phase.windows.is_empty() {
                        phase.windows.extend(cutter.cut(Duration::ZERO));
                    }
                    phase
                };
                std::thread::scope(|scope| {
                    let second = scope.spawn(|| client(false));
                    let mut phase = client(true);
                    phase.absorb(second.join().expect("client thread does not panic"));
                    phase
                })
            }
        };
        phase.wall = t0.elapsed().as_secs_f64();
        phase
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The generator is a copy of E13's (`experiments.rs::scaled_uniform`;
    /// a benchmark's inputs must not move when an experiment's do). This
    /// ties the copy to E13's committed output: `BENCH_protocols.json`
    /// records 439 comparisons and 11,452 bytes for its n = 100 grid row,
    /// drawn from seed 9,200 + n.
    #[test]
    fn generator_reproduces_the_e13_row_at_n_100() {
        let (points, side) = scaled_uniform(100, 9_300);
        assert_eq!((points.len(), side), (100, 40));
        assert_ne!(points, scaled_uniform(100, 9_301).0);
        let spec = Spec {
            n: 100,
            ..WORKLOADS[0]
        };
        let Prepared::Pair(pair) = prepare(&spec, 9_300) else {
            panic!("the vertical workload is a two-party one")
        };
        assert_eq!(pair.points, points);
        let run = pair.run(None);
        assert!(pair.ok(&run), "{:?}", run.alice.as_ref().err());
        let alice = run.alice.expect("checked above").output;
        assert_eq!(
            (alice.yao.comparisons, alice.traffic.total_bytes()),
            (439, 11_452)
        );
    }

    #[test]
    fn workload_names_are_unique_and_findable() {
        for w in WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.n), Some(w.n));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert!(find("nope").is_none());
    }
}
