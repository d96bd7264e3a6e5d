//! `--compare a.jsonl b.jsonl`: two sets of runs (one JSON line per run,
//! as `--out` writes them) side by side, per workload and end-to-end
//! metric: both medians, the ratio with its base, the bound, and a verdict.
//!
//! Runs are paired by seed where both sets hold the same seeds, which is
//! what lets the wire metrics — exact for a seed, a few percent apart
//! between seeds — be held to a bound of 0.

use crate::json::Json;
use crate::metrics::{median, spread, Better, END_TO_END};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// workload → metric → (seed, value) per run, in file order.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<(u64, f64)>>>;

/// Metrics that are a function of the seed alone: the same seed must give
/// the same value on both sides, whatever the machine was doing.
const EXACT_PER_SEED: [&str; 2] = ["wire_bytes_per_record", "wire_rounds_per_record"];

/// Parses a `--out` file. Lines of traced runs are skipped: their metrics
/// have no bounds to compare against.
pub fn parse_runs(text: &str) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    for (number, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", number + 1))?;
        let stamp = doc
            .get("stamp")
            .ok_or(format!("line {}: no stamp", number + 1))?;
        if stamp.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = stamp
            .get("workload")
            .and_then(Json::as_str)
            .ok_or(format!("line {}: no workload", number + 1))?;
        let seed = stamp
            .get("seed")
            .and_then(Json::as_f64)
            .ok_or(format!("line {}: no seed", number + 1))? as u64;
        let metrics = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_obj)
            .ok_or(format!("line {}: no metrics", number + 1))?;
        for (name, entry) in metrics {
            if let Some(value) = entry.get("value").and_then(Json::as_f64) {
                set.entry(workload.to_string())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push((seed, value));
            }
        }
    }
    Ok(set)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Both spreads are within the bound and so is the change in median.
    Ok,
    /// B is worse than A by more than the bound.
    Breach,
    /// A spread exceeds the bound: the runs cannot tell unchanged from
    /// changed, so the metric is reported as neither, whatever the medians
    /// say.
    Unresolved,
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
pub fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

pub fn verdict(better: Better, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    if spread(a) > bound || spread(b) > bound {
        Verdict::Unresolved
    } else if worsening(better, median(a), median(b)) > bound {
        Verdict::Breach
    } else {
        Verdict::Ok
    }
}

/// `a` and `b` matched by seed, or `None` unless both hold exactly the same
/// seeds, once each.
fn paired(a: &[(u64, f64)], b: &[(u64, f64)]) -> Option<Vec<(u64, f64, f64)>> {
    let by_seed = |runs: &[(u64, f64)]| runs.iter().copied().collect::<BTreeMap<u64, f64>>();
    let (a_by, b_by) = (by_seed(a), by_seed(b));
    (a_by.len() == a.len() && b_by.len() == b.len() && a_by.keys().eq(b_by.keys()))
        .then(|| a_by.iter().map(|(&s, &va)| (s, va, b_by[&s])).collect())
}

/// An exact metric on paired seeds is held to a bound of 0, seed by seed.
fn exact_verdict(better: Better, pairs: &[(u64, f64, f64)]) -> (Verdict, String) {
    match pairs
        .iter()
        .find(|(_, a, b)| worsening(better, *a, *b) > 0.0)
    {
        Some((seed, a, b)) => (
            Verdict::Breach,
            format!("BREACH: seed {seed} gives {a} then {b}"),
        ),
        None => {
            let same = pairs.iter().filter(|(_, a, b)| a == b).count();
            (
                Verdict::Ok,
                format!("ok ({same} of {} seeds identical, none worse)", pairs.len()),
            )
        }
    }
}

/// The comparison table, and whether any metric breached its bound.
pub fn compare(a: &RunSet, b: &RunSet) -> (String, bool) {
    let mut out = String::new();
    let mut breached = false;
    let _ = writeln!(
        out,
        "{:<34} {:<24} {:>14} {:>14} {:>22} {:>7} {:>8} {:>8}  verdict",
        "workload",
        "metric",
        "median A",
        "median B",
        "B/A (base A)",
        "bound",
        "spread A",
        "spread B"
    );
    for (workload, metrics_a) in a {
        let Some(metrics_b) = b.get(workload) else {
            let _ = writeln!(out, "{workload:<34} only in A");
            continue;
        };
        for m in END_TO_END {
            let (Some(va), Some(vb)) = (metrics_a.get(m.name), metrics_b.get(m.name)) else {
                continue;
            };
            let values = |runs: &[(u64, f64)]| runs.iter().map(|r| r.1).collect::<Vec<f64>>();
            let pairs = paired(va, vb).filter(|_| EXACT_PER_SEED.contains(&m.name));
            let (va, vb) = (values(va), values(vb));
            let (ma, mb) = (median(&va), median(&vb));
            let (bound, (v, note)) = match pairs {
                Some(pairs) => (0.0, exact_verdict(m.better, &pairs)),
                None => {
                    let v = verdict(m.better, m.bound, &va, &vb);
                    let note = match v {
                        Verdict::Ok => format!("ok ({} vs {} runs)", va.len(), vb.len()),
                        Verdict::Breach => "BREACH".into(),
                        Verdict::Unresolved => "unresolved: spread exceeds bound".into(),
                    };
                    (m.bound, (v, note))
                }
            };
            breached |= v == Verdict::Breach;
            let _ = writeln!(
                out,
                "{:<34} {:<24} {:>14.6} {:>14.6} {:>9.4} ({:>10.6}) {:>6.1}% {:>7.2}% {:>7.2}%  {}",
                workload,
                m.name,
                ma,
                mb,
                mb / ma,
                ma,
                bound * 100.0,
                spread(&va) * 100.0,
                spread(&vb) * 100.0,
                note
            );
        }
    }
    for workload in b.keys().filter(|w| !a.contains_key(*w)) {
        let _ = writeln!(out, "{workload:<34} only in B");
    }
    (out, breached)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One `--out` line holding one metric.
    fn line(workload: &str, trace: u8, seed: u64, metric: &str, value: f64) -> String {
        Json::obj([
            (
                "stamp",
                Json::obj([
                    ("workload", Json::str(workload)),
                    ("trace", Json::Num(f64::from(trace))),
                    ("seed", Json::Num(seed as f64)),
                ]),
            ),
            (
                "result",
                Json::obj([(
                    "metrics",
                    Json::obj([(
                        metric,
                        Json::obj([("value", Json::Num(value)), ("unit", Json::str("?"))]),
                    )]),
                )]),
            ),
        ])
        .render()
    }

    /// Runs of workload `w` on seeds 1, 2, … with these values of `metric`.
    fn set(metric: &str, values: &[f64]) -> RunSet {
        let text: Vec<String> = (1..)
            .zip(values)
            .map(|(seed, &v)| line("w", 0, seed, metric, v))
            .collect();
        parse_runs(&text.join("\n")).unwrap()
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00];
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.15).collect();
        let faster: Vec<f64> = steady.iter().map(|v| v * 0.85).collect();
        let noisy = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0];
        let noisy_and_slower: Vec<f64> = noisy.iter().map(|v| v * 1.5).collect();
        assert_eq!(verdict(Better::Lower, 0.10, &steady, &steady), Verdict::Ok);
        assert_eq!(
            verdict(Better::Lower, 0.10, &steady, &slower),
            Verdict::Breach
        );
        assert_eq!(verdict(Better::Lower, 0.10, &steady, &faster), Verdict::Ok);
        assert_eq!(
            verdict(Better::Higher, 0.10, &steady, &faster),
            Verdict::Breach
        );
        // A spread wider than the bound is unresolved whatever the medians say.
        for b in [&noisy[..], &noisy_and_slower] {
            assert_eq!(
                verdict(Better::Lower, 0.10, &steady, b),
                Verdict::Unresolved
            );
        }
    }

    #[test]
    fn table_flags_a_breach_and_skips_traced_lines() {
        let a = set("session_s", &[1.0, 1.0, 1.0]);
        let mut text = vec![
            line("w", 0, 1, "session_s", 1.5),
            line("w", 0, 2, "session_s", 1.5),
            line("w", 1, 3, "session_s", 99.0),
        ];
        text.push(line("only_b", 0, 1, "session_s", 1.0));
        let b = parse_runs(&text.join("\n")).unwrap();
        assert_eq!(b["w"]["session_s"], vec![(1, 1.5), (2, 1.5)]);
        let (table, breached) = compare(&a, &b);
        assert!(breached, "{table}");
        assert!(
            table.contains("BREACH") && table.contains("only in B"),
            "{table}"
        );
        assert!(!compare(&a, &a).1);
    }

    /// The wire metrics differ between seeds and repeat exactly on one, so
    /// on paired seeds their bound is 0; on unpaired ones it is the table's.
    #[test]
    fn exact_metrics_are_compared_seed_by_seed() {
        let wire = "wire_bytes_per_record";
        let a = set(wire, &[100.0, 103.0, 98.0]);
        let (table, breached) = compare(&a, &a);
        assert!(
            !breached && table.contains("3 of 3 seeds identical"),
            "{table}"
        );
        // One byte more on one seed: within 10 % of the median, still a breach.
        let (table, breached) = compare(&a, &set(wire, &[100.0, 103.5, 98.0]));
        assert!(breached && table.contains("seed 2"), "{table}");
        // Fewer bytes is no breach.
        assert!(!compare(&a, &set(wire, &[100.0, 101.0, 98.0])).1);
        // Other seeds on the B side: back to medians and the table's bound.
        let text: Vec<String> = [100.5, 103.5, 98.5]
            .iter()
            .zip(7..)
            .map(|(&v, seed)| line("w", 0, seed, wire, v))
            .collect();
        let (table, breached) = compare(&a, &parse_runs(&text.join("\n")).unwrap());
        assert!(!breached && table.contains("ok (3 vs 3 runs)"), "{table}");
    }
}
