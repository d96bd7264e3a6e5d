//! One benchmark run: pin, set up, warm up, then either the timed phase
//! (end-to-end metrics, tracing off) or the per-layer pass.

use crate::json::Json;
use crate::layers::{direct_rows, Rows};
use crate::metrics::{least, median, quantile, Metric, END_TO_END, PER_LAYER};
use crate::sysinfo;
use crate::traced::traced_pass;
use crate::workloads::{pick_draw, prepare, Phase, Prepared, Spec};
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Set-up is repeated in two rounds, one before the timed phase and one
/// after it: half a minute apart they meet different plateaus of the machine
/// (see [`least`]), where one round would sit on one. Each round lasts this
/// share of `--seconds` (2 s of a 25-second run) and at least
/// [`SETUPS_BEFORE`] and [`SETUPS_AFTER`] repetitions; `setup_s` is the
/// fastest repetition of both.
const SETUP_SHARE: f64 = 0.08;
const SETUPS_BEFORE: usize = 2;
const SETUPS_AFTER: usize = 1;

/// How a run is parameterised beyond the workload itself.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// Length of the timed phase (or of the traced pass's session loop).
    pub seconds: f64,
    pub trace: bool,
}

/// A finished run: the driver's result object, the environment stamp, and
/// a human-readable report.
pub struct Finished {
    pub result: Json,
    pub stamp: Json,
    pub report: String,
}

impl Finished {
    pub fn correct(&self) -> bool {
        self.result.get("correct") == Some(&Json::Bool(true))
    }

    #[cfg(test)]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }
}

/// Pins the process to one CPU — the last it is allowed on, away from
/// CPU 0's interrupt work — and reads the result back. Every workload runs
/// on one: two party threads (or two clients and the server's workers) that
/// float over two vCPUs pay a cross-CPU wake-up per frame or not depending
/// on where the scheduler happened to put them, which makes session time
/// bimodal (0.15 s or 0.5 s at n = 10⁴; 6 ms or 12 ms against the server)
/// and sticky for the life of the process. On one CPU each is one number.
///
/// Returns the CPUs allowed before and after, and what went wrong if the
/// process does not end up on exactly one: such a run measures the bimodal
/// thing, so it is reported as not correct.
fn pin() -> (Vec<usize>, Vec<usize>, Option<String>) {
    // The set the process started with: `--smoke` and the tests run several
    // workloads in one process.
    static AT_START: OnceLock<Vec<usize>> = OnceLock::new();
    let before = AT_START.get_or_init(sysinfo::allowed_cpus).clone();
    let chosen = &before[before.len().saturating_sub(1)..];
    let refused = sysinfo::pin_to(chosen).err();
    let pinned = sysinfo::allowed_cpus();
    let problem = (pinned.len() != 1).then(|| {
        let why = refused.map_or("no CPU list in /proc/thread-self/status".into(), |e| {
            e.to_string()
        });
        format!("not pinned to one CPU (wanted {chosen:?}, allowed {pinned:?}): {why}")
    });
    (before, pinned, problem)
}

/// One round of set-up, repeated `at_least` times and for `seconds`:
/// returns the last prepared workload, the seconds each repetition took,
/// and how many warm-up sessions ran and failed.
fn set_up(spec: &Spec, seed: u64, at_least: usize, seconds: f64) -> (Prepared, Vec<f64>, u64, u64) {
    let started = Instant::now();
    let mut times = Vec::new();
    let (mut ran, mut failed) = (0, 0);
    loop {
        let t0 = Instant::now();
        let prepared = prepare(spec, seed);
        failed += prepared.warm_up(spec.warmups);
        ran += prepared.sessions_per_warm_up() * spec.warmups as u64;
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= at_least && started.elapsed().as_secs_f64() >= seconds {
            return (prepared, times, ran, failed);
        }
        // Tear-down (closing the listener, draining the server) happens
        // here, between repetitions, outside any of them.
    }
}

fn metrics_object(table: &[Metric], values: &Rows) -> Json {
    Json::obj(table.iter().map(|m| {
        let value = values
            .iter()
            .find(|(name, _)| *name == m.name)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("no value measured for {}", m.name));
        assert!(value.is_finite(), "{} is {value}", m.name);
        (
            m.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// What either pass hands back to [`run`].
struct Measured {
    table: &'static [Metric],
    values: Rows,
    attempted: u64,
    failed: u64,
    /// Accounting identities that did not hold.
    problems: Vec<String>,
    samples: usize,
    /// First line of the report.
    headline: String,
}

/// The end-to-end metrics of a timed phase over `n` records. Every time
/// metric is the best the run saw (see [`least`]): the fastest session, the
/// fastest set-up, the window with the most records a second, the window
/// with the least CPU a session.
fn end_to_end_values(n: usize, phase: &Phase, setups: &[f64]) -> Rows {
    let windows = || phase.windows.iter();
    // One division of two whole numbers: sessions of one seed move the same
    // bytes, so the quotient is the same however many of them a run held.
    let completed_records = (phase.completed.max(1) * n as u64) as f64;
    vec![
        ("session_s", least(phase.samples.iter().copied())),
        (
            "records_per_s",
            -least(windows().map(|w| -(w.records as f64 / w.wall))),
        ),
        (
            "cpu_s_per_session",
            least(windows().map(|w| w.cpu / w.sessions.max(1) as f64)),
        ),
        (
            "wire_bytes_per_record",
            phase.traffic.total_bytes() as f64 / completed_records,
        ),
        (
            "wire_rounds_per_record",
            phase.traffic.total_rounds() as f64 / completed_records,
        ),
        ("peak_rss_mb", sysinfo::peak_rss_mib()),
        ("setup_s", least(setups.iter().copied())),
    ]
}

/// `--trace 0`: the end-to-end metrics of the closed-loop timed phase.
fn end_to_end_report(spec: &Spec, phase: &Phase, setups: &[f64]) -> Measured {
    Measured {
        table: &END_TO_END,
        values: end_to_end_values(spec.n, phase, setups),
        attempted: phase.attempted,
        failed: phase.failed,
        problems: Vec::new(),
        samples: phase.samples.len(),
        headline: format!(
            "timed phase: {} sessions in {:.3} s, failed_share {}/{}; session samples: {} \
             (min {:.6}, p10 {:.6}, p25 {:.6}, median {:.6}, p90 {:.6} s)",
            phase.attempted,
            phase.wall,
            phase.failed,
            phase.attempted,
            phase.samples.len(),
            least(phase.samples.iter().copied()),
            quantile(&phase.samples, 0.1),
            quantile(&phase.samples, 0.25),
            median(&phase.samples),
            quantile(&phase.samples, 0.9),
        ),
    }
}

/// `--trace 1`: the direct-call rows (about 1 % of `seconds` each), then
/// the traced pass for 60 % of `seconds`.
fn per_layer_pass(spec: &Spec, prepared: &Prepared, seconds: f64) -> Measured {
    let mut values = direct_rows(
        spec,
        prepared.points(),
        Duration::from_secs_f64(seconds * 0.01),
    );
    let plain_dbscan_s = values
        .iter()
        .find(|(name, _)| *name == "dbscan.plain_ms")
        .map_or(f64::NAN, |(_, ms)| ms * 1e-3);
    let traced = traced_pass(spec, prepared, seconds * 0.6, plain_dbscan_s);
    values.extend(traced.rows);
    Measured {
        table: &PER_LAYER,
        values,
        attempted: traced.attempted,
        failed: traced.failed,
        problems: traced.problems,
        samples: traced.untraced_samples,
        headline: format!(
            "traced pass: {} untraced + {} traced samples; frames {}",
            traced.untraced_samples, traced.traced_samples, traced.frame_sizes
        ),
    }
}

pub fn run(spec: &Spec, opts: Options) -> Finished {
    let (cpus_before, cpus_pinned, unpinned) = pin();
    let draw = pick_draw(spec, opts.seed);
    // The per-layer pass reports no set-up time, so it sets up once.
    let (at_least, round) = if opts.trace {
        (1, 0.0)
    } else {
        (SETUPS_BEFORE, opts.seconds * SETUP_SHARE)
    };
    let (prepared, mut setups, mut warm_ran, mut warm_failed) = set_up(spec, draw, at_least, round);
    let mut measured = if opts.trace {
        per_layer_pass(spec, &prepared, opts.seconds)
    } else {
        let phase = prepared.measure(opts.seconds, 1);
        drop(prepared);
        let (_, more, ran, failed) = set_up(spec, draw, SETUPS_AFTER, round);
        setups.extend(more);
        warm_ran += ran;
        warm_failed += failed;
        end_to_end_report(spec, &phase, &setups)
    };
    measured.problems.extend(unpinned);
    if warm_failed > 0 {
        measured
            .problems
            .push(format!("{warm_failed} warm-up sessions failed"));
    }

    let stamp = Json::obj([
        ("workload", Json::str(spec.name)),
        ("seed", Json::Num(opts.seed as f64)),
        ("generator_seed", Json::str(format!("{draw:#x}"))),
        ("seconds", Json::Num(opts.seconds)),
        ("trace", Json::Num(f64::from(u8::from(opts.trace)))),
        ("records", Json::Num(spec.n as f64)),
        ("key_bits", Json::Num(spec.key_bits as f64)),
        (
            "link",
            Json::str(spec.link.map_or("loopback".into(), |l| l.describe())),
        ),
        ("cpus_allowed_before", cpu_list(&cpus_before)),
        ("cpus_pinned", cpu_list(&cpus_pinned)),
        ("nproc", Json::Num(cpus_before.len() as f64)),
        ("samples", Json::Num(measured.samples as f64)),
        ("setup_repetitions", Json::Num(setups.len() as f64)),
        ("git_commit", Json::str(sysinfo::git_commit())),
        ("rustc", Json::str(sysinfo::rustc_version())),
    ]);
    let failed = measured.failed + warm_failed;
    let result = Json::obj([
        (
            "correct",
            Json::Bool(failed == 0 && measured.problems.is_empty()),
        ),
        (
            "attempted",
            Json::Num((measured.attempted + warm_ran) as f64),
        ),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics_object(measured.table, &measured.values)),
    ]);

    let mut report = format!("{}\nstamp: {}\n", measured.headline, stamp.render());
    for problem in &measured.problems {
        let _ = writeln!(report, "PROBLEM: {problem}");
    }
    for (name, value) in &measured.values {
        let unit = measured
            .table
            .iter()
            .find(|m| m.name == *name)
            .map(|m| m.unit);
        let _ = writeln!(report, "  {name:<36} {value:>16.6} {}", unit.unwrap_or("?"));
    }
    Finished {
        result,
        stamp,
        report,
    }
}

fn cpu_list(cpus: &[usize]) -> Json {
    Json::Arr(cpus.iter().map(|&c| Json::Num(c as f64)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{Window, WORKLOADS};

    /// `--smoke`: every workload at a tenth of its records with 512-bit
    /// keys, one timed session, both passes; every metric present and
    /// finite, nothing failed, the accounting identities hold.
    #[test]
    fn smoke_runs_all_workloads_and_reports_every_metric() {
        for spec in WORKLOADS.map(Spec::smoke) {
            for trace in [false, true] {
                let finished = run(
                    &spec,
                    Options {
                        seed: 7,
                        seconds: 0.0,
                        trace,
                    },
                );
                assert!(
                    finished.correct(),
                    "{} trace={trace}:\n{}",
                    spec.name,
                    finished.report
                );
                let table: &[Metric] = if trace { &PER_LAYER } else { &END_TO_END };
                for m in table {
                    let value = finished.metric(m.name);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{}: {} is {value:?}",
                        spec.name,
                        m.name
                    );
                }
                if !trace {
                    for m in END_TO_END {
                        assert!(
                            finished.metric(m.name).unwrap() > 0.0,
                            "{} is never 0",
                            m.name
                        );
                    }
                }
            }
        }
    }

    /// The time metrics are the best of the run, not its middle.
    #[test]
    fn time_metrics_are_the_best_sample_and_the_best_window() {
        let window = |cpu, sessions, records| Window {
            wall: 2.0,
            cpu,
            sessions,
            records,
        };
        let phase = Phase {
            samples: vec![0.3, 0.1, 0.2, 0.4, 0.5],
            windows: vec![
                window(1.0, 2, 200),
                window(0.8, 4, 400),
                window(1.2, 3, 300),
            ],
            completed: 9,
            ..Phase::default()
        };
        let values = end_to_end_values(100, &phase, &[2.0, 1.0, 3.0]);
        let value = |name: &str| values.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(value("session_s"), 0.1);
        assert_eq!(value("records_per_s"), 200.0);
        assert_eq!(value("cpu_s_per_session"), 0.2);
        assert_eq!(value("setup_s"), 1.0);
    }

    #[test]
    fn a_wrong_reference_counts_as_failed() {
        let spec = WORKLOADS[0].smoke();
        let Prepared::Pair(mut pair) = prepare(&spec, 3) else {
            panic!("the vertical workload is a two-party one")
        };
        let labels = &mut pair.alice.reference.labels;
        labels[0] = match labels[0] {
            ppds_dbscan::Label::Noise => ppds_dbscan::Label::Cluster(0),
            ppds_dbscan::Label::Cluster(_) => ppds_dbscan::Label::Noise,
        };
        let phase = Prepared::Pair(pair).measure(0.0, 2);
        assert_eq!((phase.attempted, phase.failed, phase.completed), (2, 2, 0));
    }
}
