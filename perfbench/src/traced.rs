//! The traced pass: the workload's sessions rerun with the flight recorder
//! on and the socket timed, interleaved with untraced sessions so the
//! difference is the tracing overhead. Self time of a span is its wall
//! time minus its children's, computed here from `SessionTrace::rollup`.

use crate::channels::SocketTimes;
use crate::layers::Rows;
use crate::metrics::{least, median, quantile};
use crate::workloads::{Prepared, Spec};
use ppdbscan::session::SessionOutcome;
use ppds_observe::PhaseRollup;
use ppds_transport::{CostModel, MetricsSnapshot};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Span labels the smc crate records (plus `cmp`, the core span that holds
/// nothing but the enhanced mode's single threshold comparison).
const SMC_LABELS: [&str; 6] = ["cmp_batch", "mul_batch", "dot_many", "kth", "unpack", "cmp"];

/// The four spans every session's own thread records at depth 0.
const TOP_LEVEL: [&str; 4] = ["keygen", "establish", "execute", "assemble"];

/// Least share of a party's `Participant::run` its top-level spans must
/// cover for the breakdown to count. Not 0.95: the recorder's own teardown
/// (`SpanRecorder::finish` clones every event, then the buffer is freed)
/// runs inside `run` after the last span has closed, and at n = 10⁴ —
/// 41,000 events — that alone is 5 % of the session.
const MIN_SPAN_COVERAGE: f64 = 0.90;

/// The pass on every client the workload has: two for the server workload
/// (as in the timed phase: they share the CPU), one otherwise.
fn alternate_all(spec: &Spec, prepared: &Prepared, deadline: Instant) -> Pass {
    match prepared {
        Prepared::Pair(_) => alternate(spec, prepared, deadline),
        Prepared::Hosted(_) => std::thread::scope(|scope| {
            let second = scope.spawn(|| alternate(spec, prepared, deadline));
            let mut pass = alternate(spec, prepared, deadline);
            pass.absorb(second.join().expect("client thread does not panic"));
            pass
        }),
    }
}

fn label(path: &str) -> &str {
    path.rsplit('/').next().unwrap_or(path)
}

/// One session's spans as seconds: wall per top-level span, self time per
/// label, and the part of `execute` that is not inside any smc span.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Breakdown {
    pub top_level: BTreeMap<String, f64>,
    pub self_by_label: BTreeMap<String, f64>,
    pub execute_self: f64,
    /// A parent whose children's walls add up to more than its own: the
    /// spans do not nest as a tree, so self times mean nothing.
    pub overfull_parent: Option<String>,
}

pub fn breakdown(rollup: &[PhaseRollup]) -> Breakdown {
    let mut out = Breakdown::default();
    let secs = |ns: u64| ns as f64 * 1e-9;
    let mut smc_in_execute = 0.0;
    for row in rollup {
        let children: u64 = rollup
            .iter()
            .filter(|c| {
                c.path
                    .strip_prefix(row.path.as_str())
                    .and_then(|rest| rest.strip_prefix('/'))
                    .is_some_and(|rest| !rest.contains('/'))
            })
            .map(|c| c.wall_ns)
            .sum();
        // Clock reads of parent and child edges interleave, so allow the
        // children a microsecond per span over the parent.
        if children > row.wall_ns + 1_000 * row.count {
            out.overfull_parent.get_or_insert_with(|| row.path.clone());
        }
        *out.self_by_label
            .entry(label(&row.path).to_string())
            .or_default() += secs(row.wall_ns.saturating_sub(children));
        if !row.path.contains('/') {
            out.top_level.insert(row.path.clone(), secs(row.wall_ns));
        }
        if let Some(inside) = row.path.strip_prefix("execute/") {
            let mut segments = inside.split('/').rev();
            let outermost_smc = segments.next().is_some_and(|l| SMC_LABELS.contains(&l))
                && !segments.any(|l| SMC_LABELS.contains(&l));
            if outermost_smc {
                smc_in_execute += secs(row.wall_ns);
            }
        }
    }
    out.execute_self = out.top_level.get("execute").copied().unwrap_or(0.0) - smc_in_execute;
    out
}

fn add_all(into: &mut BTreeMap<String, f64>, from: BTreeMap<String, f64>) {
    for (label, secs) in from {
        *into.entry(label).or_default() += secs;
    }
}

/// What one client (or the one Alice) gathered over a pass: sums over its
/// traced sessions, and the wall-time samples of both kinds of session.
#[derive(Default)]
struct Pass {
    sessions: f64,
    wall: f64,
    top_level: f64,
    by_top: BTreeMap<String, f64>,
    self_by_label: BTreeMap<String, f64>,
    execute_self: f64,
    sockets: SocketTimes,
    traffic: MetricsSnapshot,
    events: f64,
    dropped: f64,
    comparisons: f64,
    leakage: f64,
    problems: Vec<String>,
    /// Seconds per untraced / traced session (server: per cycle ÷ legs).
    untraced: Vec<f64>,
    traced: Vec<f64>,
    /// Server only: every untraced session's latency, every traced open.
    latencies: Vec<f64>,
    opens: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Pass {
    /// Folds in one traced session seen from its client/Alice side; `wall`
    /// is how long that side's `Participant::run` took.
    fn add(&mut self, outcome: &SessionOutcome, sockets: &SocketTimes, wall: f64) {
        self.sessions += 1.0;
        self.wall += wall;
        self.traffic += outcome.output.traffic;
        self.comparisons += outcome.output.yao.comparisons as f64;
        self.leakage += outcome.output.leakage.len() as f64;
        self.sockets.absorb(sockets);
        let Some(trace) = &outcome.trace else {
            self.problems
                .push("traced session returned no trace".into());
            return;
        };
        self.events += trace.len() as f64;
        self.dropped += trace.dropped as f64;
        let rollup = match trace.rollup() {
            Ok(rollup) => rollup,
            Err(e) => {
                self.problems.push(format!("trace does not replay: {e}"));
                return;
            }
        };
        let b = breakdown(&rollup);
        if let Some(path) = &b.overfull_parent {
            self.problems
                .push(format!("children of `{path}` outlast it"));
        }
        let top: f64 = TOP_LEVEL.iter().filter_map(|l| b.top_level.get(*l)).sum();
        if top < MIN_SPAN_COVERAGE * wall || top > 1.001 * wall {
            self.problems.push(format!(
                "top-level spans cover {top:.6} s of a {wall:.6} s session"
            ));
        }
        self.top_level += top;
        self.execute_self += b.execute_self;
        add_all(&mut self.by_top, b.top_level);
        add_all(&mut self.self_by_label, b.self_by_label);
    }

    /// Merges a second client's pass into this one.
    fn absorb(&mut self, other: Pass) {
        self.sessions += other.sessions;
        self.wall += other.wall;
        self.top_level += other.top_level;
        self.execute_self += other.execute_self;
        self.sockets.absorb(&other.sockets);
        self.traffic += other.traffic;
        self.events += other.events;
        self.dropped += other.dropped;
        self.comparisons += other.comparisons;
        self.leakage += other.leakage;
        self.attempted += other.attempted;
        self.failed += other.failed;
        add_all(&mut self.by_top, other.by_top);
        add_all(&mut self.self_by_label, other.self_by_label);
        self.problems.extend(other.problems);
        self.untraced.extend(other.untraced);
        self.traced.extend(other.traced);
        self.latencies.extend(other.latencies);
        self.opens.extend(other.opens);
    }
}

/// Untraced and traced sessions alternately until `deadline` (at least one
/// of each), on the calling thread.
fn alternate(spec: &Spec, prepared: &Prepared, deadline: Instant) -> Pass {
    let mut pass = Pass::default();
    while pass.untraced.is_empty() || Instant::now() < deadline {
        match prepared {
            Prepared::Pair(pair) => {
                let plain = pair.run(None);
                let run = pair.run(Some(spec.trace_slots));
                pass.attempted += 2;
                pass.failed += u64::from(!pair.ok(&plain)) + u64::from(!pair.ok(&run));
                pass.untraced.push(plain.wall.as_secs_f64());
                pass.traced.push(run.wall.as_secs_f64());
                if let (Ok(alice), Some((sockets, _))) = (&run.alice, &run.sockets) {
                    pass.add(alice, sockets, run.alice_run.as_secs_f64());
                }
            }
            Prepared::Hosted(hosted) => {
                let legs = hosted.cycle.len();
                let (mut plain_cycle, mut traced_cycle) = (0.0, 0.0);
                for leg in 0..legs {
                    let plain = hosted.run(leg);
                    let run = hosted.run_traced(leg, spec.trace_slots);
                    pass.attempted += 2;
                    pass.failed +=
                        u64::from(!hosted.ok(leg, &plain)) + u64::from(!hosted.ok(leg, &run));
                    pass.latencies.push(plain.wall.as_secs_f64());
                    plain_cycle += plain.wall.as_secs_f64();
                    traced_cycle += run.wall.as_secs_f64();
                    if let (Ok(outcome), Some(sockets), Some(open)) =
                        (&run.outcome, &run.sockets, run.open)
                    {
                        pass.opens.push(open.as_secs_f64());
                        pass.add(outcome, sockets, (run.wall - open).as_secs_f64());
                    }
                }
                pass.untraced.push(plain_cycle / legs as f64);
                pass.traced.push(traced_cycle / legs as f64);
            }
        }
    }
    pass
}

/// What the traced pass found.
pub struct Traced {
    pub rows: Rows,
    pub attempted: u64,
    pub failed: u64,
    /// Accounting identities that did not hold; any entry makes the run
    /// incorrect.
    pub problems: Vec<String>,
    pub untraced_samples: usize,
    pub traced_samples: usize,
    /// Alice's/the clients' frames by payload size, non-empty buckets only.
    pub frame_sizes: String,
}

/// Runs untraced and traced sessions alternately for `seconds` (at least
/// one of each) under the workload's own load — one session in flight, or
/// the server workload's two clients — then turns the traces into
/// per-layer rows. `plain_dbscan_s` is the direct-call time of plaintext
/// DBSCAN on the same points, the base of `core.slowdown_x`.
pub fn traced_pass(spec: &Spec, prepared: &Prepared, seconds: f64, plain_dbscan_s: f64) -> Traced {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut totals = alternate_all(spec, prepared, deadline);
    let per_session = |total: f64| total / totals.sessions.max(1.0);
    let self_of =
        |label: &str| per_session(totals.self_by_label.get(label).copied().unwrap_or(0.0));
    let top_of = |label: &str| per_session(totals.by_top.get(label).copied().unwrap_or(0.0));
    let session_s = least(totals.untraced.iter().copied());
    let n = spec.n as f64;
    let mut rows: Rows = vec![
        ("smc.cmp_self_s", self_of("cmp")),
        ("smc.dot_self_s", self_of("dot_many")),
        ("smc.kth_self_s", self_of("kth")),
        ("smc.unpack_self_s", self_of("unpack")),
        ("smc.cmp_batch_self_s", self_of("cmp_batch")),
        ("smc.mul_batch_self_s", self_of("mul_batch")),
        (
            "transport.send_s",
            per_session(totals.sockets.send.as_secs_f64()),
        ),
        (
            "transport.recv_wait_s",
            per_session(totals.sockets.recv.as_secs_f64()),
        ),
        (
            "transport.frames",
            per_session(totals.sockets.frames() as f64),
        ),
        ("transport.mean_frame_b", totals.sockets.mean_frame_bytes()),
        ("core.establish_s", top_of("establish")),
        ("core.execute_s", top_of("execute")),
        ("core.execute_self_s", per_session(totals.execute_self)),
        ("core.assemble_s", top_of("assemble")),
        (
            "core.secure_cmp_per_record",
            per_session(totals.comparisons) / n,
        ),
        (
            "core.leakage_events_per_record",
            per_session(totals.leakage) / n,
        ),
        ("core.slowdown_x", session_s / plain_dbscan_s),
        (
            "observe.trace_overhead_ratio",
            least(totals.traced.iter().copied()) / session_s - 1.0,
        ),
        ("observe.events_per_session", per_session(totals.events)),
        ("observe.dropped_events", totals.dropped),
        (
            "observe.span_coverage_ratio",
            totals.top_level / totals.wall.max(f64::MIN_POSITIVE),
        ),
    ];

    // The two-term model against the measurement, where there is a link to
    // model: (estimate − measured) ÷ measured, per session.
    let model_error = spec.link.map_or(0.0, |link| {
        let model = CostModel {
            latency: link.latency,
            bandwidth_bytes_per_sec: link.bytes_per_sec as u64,
        };
        let mean_traffic = MetricsSnapshot {
            bytes_sent: (per_session(totals.traffic.bytes_sent as f64)) as u64,
            bytes_received: (per_session(totals.traffic.bytes_received as f64)) as u64,
            rounds_sent: (per_session(totals.traffic.rounds_sent as f64)) as u64,
            rounds_received: (per_session(totals.traffic.rounds_received as f64)) as u64,
            ..MetricsSnapshot::default()
        };
        (model.estimate(&mean_traffic).as_secs_f64() - session_s) / session_s
    });
    rows.push(("transport.model_error_ratio", model_error));

    let (mut open_ms, mut p90_ms, mut negotiation, mut keypairs, mut refused) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    if let Prepared::Hosted(hosted) = prepared {
        let registry = hosted.server().metrics();
        let counter = |name: &str| registry.counter(name).get() as f64;
        let ratio = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
        open_ms = median(&totals.opens) * 1e3;
        p90_ms = quantile(&totals.latencies, 0.9) * 1e3;
        negotiation = ratio(
            counter("server_negotiation_cache_hits"),
            counter("server_negotiation_cache_misses"),
        );
        keypairs = ratio(
            counter("server_keypair_cache_hits"),
            counter("server_keypair_cache_misses"),
        );
        refused = counter("server_sessions_rejected_busy")
            + counter("server_sessions_rejected_draining")
            + counter("server_sessions_rejected_incompatible");
    }
    rows.extend([
        ("server.open_ms", open_ms),
        ("server.session_p90_ms", p90_ms),
        ("server.negotiation_cache_hit_ratio", negotiation),
        ("server.keypair_cache_hit_ratio", keypairs),
        ("server.refused", refused),
    ]);

    if totals.dropped > 0.0 {
        let dropped = format!("{} span edges dropped", totals.dropped);
        totals.problems.push(dropped);
    }
    Traced {
        rows,
        attempted: totals.attempted,
        failed: totals.failed,
        untraced_samples: totals.untraced.len(),
        traced_samples: totals.traced.len(),
        frame_sizes: totals.sockets.describe_histogram(),
        problems: totals.problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(path: &str, count: u64, wall_ns: u64) -> PhaseRollup {
        PhaseRollup {
            path: path.into(),
            count,
            wall_ns,
            traffic: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn self_time_is_wall_minus_direct_children() {
        let rollup = vec![
            row("establish", 1, 1_000_000),
            row("execute", 1, 10_000_000),
            row("execute/query", 4, 8_000_000),
            row("execute/query/sel", 4, 5_000_000),
            row("execute/query/sel/kth", 4, 4_000_000),
            row("execute/query/sel/kth/cmp_batch", 9, 3_000_000),
            row("execute/query/cmp", 4, 1_000_000),
            row("par_worker", 8, 2_000_000),
            row("par_worker/unpack", 8, 1_500_000),
        ];
        let b = breakdown(&rollup);
        assert_eq!(b.overfull_parent, None);
        let ms = |label: &str| (b.self_by_label[label] * 1e3 * 1e6).round() / 1e6;
        assert_eq!(ms("execute"), 2.0);
        assert_eq!(ms("query"), 2.0);
        assert_eq!(ms("sel"), 1.0);
        assert_eq!(ms("kth"), 1.0);
        assert_eq!(ms("cmp_batch"), 3.0);
        assert_eq!(ms("cmp"), 1.0);
        assert_eq!(ms("unpack"), 1.5);
        assert_eq!(ms("par_worker"), 0.5);
        // execute minus its outermost smc spans: kth (4 ms) and cmp (1 ms);
        // cmp_batch sits inside kth and is not subtracted twice.
        assert!((b.execute_self - 5.0e-3).abs() < 1e-12);
        assert_eq!(b.top_level.len(), 3, "establish, execute, par_worker");
    }

    #[test]
    fn children_that_outlast_their_parent_are_reported() {
        let rollup = vec![
            row("execute", 1, 1_000_000),
            row("execute/query", 1, 2_000_000),
        ];
        assert_eq!(
            breakdown(&rollup).overfull_parent.as_deref(),
            Some("execute")
        );
    }
}
