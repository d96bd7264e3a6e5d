//! The metric vocabulary: names, units, which way is better, and for the
//! end-to-end metrics the bound a later change may not worsen them by.
//! `BENCHMARK.json` lists the same tables (a unit test keeps them equal).

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg(test)]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change is a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees; measured with tracing off.
///
/// The time bounds are the widest the driver allows: the sandbox these
/// were calibrated on is a shared 2-vCPU VM that runs 1.3–1.8× slower for
/// seconds to minutes at a time (see [`least`]). The wire counts spread
/// 0–3 % across seeds, peak memory up to 5 %.
pub const END_TO_END: [Metric; 7] = [
    e2e("session_s", "s", Lower, 0.25),
    e2e("records_per_s", "records/s", Higher, 0.25),
    e2e("cpu_s_per_session", "s", Lower, 0.25),
    e2e("wire_bytes_per_record", "B", Lower, 0.10),
    e2e("wire_rounds_per_record", "frames", Lower, 0.10),
    e2e("peak_rss_mb", "MiB", Lower, 0.15),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Single layers; `--trace 1` reports these and nothing else.
pub const PER_LAYER: [Metric; 52] = [
    // bigint: direct calls, 2048-bit modulus.
    layer("bigint.mont_mul_ns", "ns", Lower),
    layer("bigint.pow_mod_us", "us", Lower),
    layer("bigint.fixed_base_pow_us", "us", Lower),
    layer("bigint.multi_exp16_us", "us", Lower),
    layer("bigint.batch_inverse64_us", "us", Lower),
    // paillier: direct calls, 1024-bit key.
    layer("paillier.keygen_ms", "ms", Lower),
    layer("paillier.encrypt_us", "us", Lower),
    layer("paillier.encrypt_many64_us", "us", Lower),
    layer("paillier.decrypt_crt_us", "us", Lower),
    layer("paillier.validate_many64_us", "us", Lower),
    layer("paillier.pack_ciphertexts_us", "us", Lower),
    layer("paillier.unpack_decrypt_us", "us", Lower),
    // smc on Paillier: direct calls, then self times from the traced pass.
    layer("smc.dgk_cmp_packed_us", "us", Lower),
    layer("smc.dot_many_row_us", "us", Lower),
    layer("smc.kth_call_ms", "ms", Lower),
    layer("smc.cmp_self_s", "s", Lower),
    layer("smc.dot_self_s", "s", Lower),
    layer("smc.kth_self_s", "s", Lower),
    layer("smc.unpack_self_s", "s", Lower),
    // smc on sharing.
    layer("smc.share_cmp_b5_ns", "ns", Lower),
    layer("smc.share_cmp_b250_ns", "ns", Lower),
    layer("smc.share_fold_b250_ns", "ns", Lower),
    layer("smc.cmp_batch_self_s", "s", Lower),
    layer("smc.mul_batch_self_s", "s", Lower),
    // dbscan: direct calls.
    layer("dbscan.plain_ms", "ms", Lower),
    layer("dbscan.grid_build_us", "us", Lower),
    layer("dbscan.band_candidates_ns", "ns", Lower),
    // transport: direct calls, then the socket boundary of the traced pass.
    layer("transport.rtt_64b_us", "us", Lower),
    layer("transport.rtt_64k_us", "us", Lower),
    layer("transport.codec_batch_mb_s", "MB/s", Higher),
    layer("transport.send_s", "s", Lower),
    layer("transport.recv_wait_s", "s", Lower),
    layer("transport.frames", "count", Lower),
    layer("transport.mean_frame_b", "B", Lower),
    layer("transport.model_error_ratio", "ratio", Lower),
    // core: the session phases of the traced pass.
    layer("core.establish_s", "s", Lower),
    layer("core.execute_s", "s", Lower),
    layer("core.execute_self_s", "s", Lower),
    layer("core.assemble_s", "s", Lower),
    layer("core.secure_cmp_per_record", "count", Lower),
    layer("core.leakage_events_per_record", "count", Lower),
    layer("core.slowdown_x", "x", Lower),
    // observe: what the flight recorder costs.
    layer("observe.trace_overhead_ratio", "ratio", Lower),
    layer("observe.events_per_session", "count", Lower),
    layer("observe.dropped_events", "count", Lower),
    layer("observe.span_coverage_ratio", "ratio", Higher),
    // engine and server.
    layer("engine.noop_task_us", "us", Lower),
    layer("server.open_ms", "ms", Lower),
    layer("server.session_p90_ms", "ms", Lower),
    layer("server.negotiation_cache_hit_ratio", "ratio", Higher),
    layer("server.keypair_cache_hit_ratio", "ratio", Higher),
    layer("server.refused", "count", Lower),
];

/// The best of a run. Interference on a shared machine only ever adds
/// time, and it comes in plateaus of 5 to 20 s (a busy hyperthread sibling
/// on the host: 1.3× or 1.6× slower while it lasts). A 25-second run sees a
/// few of them: its median is a mix, its best is the fastest plateau it
/// met. Over the same ten runs the fastest session spread 4–27 % where the
/// median spread 26–38 % (`README.md` has the table). So every time metric
/// is the best the run saw — fastest session, fastest set-up, the window
/// with the least CPU per session and the one with the most records per
/// second — and the report line keeps the median and the tail for the
/// reader.
pub fn least(values: impl Iterator<Item = f64>) -> f64 {
    values.fold(f64::INFINITY, f64::min)
}

/// Median of a non-empty sample (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `p`-quantile by the exclusive method Python's
/// `statistics.quantiles` uses (position `p·(n+1)`, clamped to the data).
pub fn quantile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let position = p * (n as f64 + 1.0);
    let below = (position.floor() as usize).clamp(1, n.max(2) - 1);
    let fraction = position - below as f64;
    let lo = sorted[below - 1];
    let hi = sorted[below.min(n - 1)];
    lo + (hi - lo) * fraction
}

/// Distance between the first and third quartile as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    (quantile(values, 0.75) - quantile(values, 0.25)) / median(values).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantile(&v, 0.25) - 2.75).abs() < 1e-12);
        assert!((quantile(&v, 0.75) - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.25), 1.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.75), 3.0);
    }

    /// `BENCHMARK.json` is written by hand; this keeps it equal to the
    /// tables above and to the workload list.
    #[test]
    fn benchmark_json_lists_exactly_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the root"))
            .expect("BENCHMARK.json parses");
        let field = |entry: &Json, key: &str| entry.get(key).cloned().unwrap_or(Json::Null);
        let listed = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();

        let e2e: Vec<Json> = END_TO_END
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                    ("bound", Json::Num(m.bound)),
                ])
            })
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        let layers: Vec<Json> = PER_LAYER
            .iter()
            .map(|m| {
                Json::obj([
                    ("name", Json::str(m.name)),
                    ("unit", Json::str(m.unit)),
                    ("better", Json::str(m.better.as_str())),
                ])
            })
            .collect();
        assert_eq!(listed("per_layer"), layers);
        let workloads: Vec<Json> = crate::workloads::WORKLOADS
            .iter()
            .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
            .collect();
        assert_eq!(listed("workloads"), workloads);
        for entry in listed("per_layer").iter().chain(&listed("end_to_end")) {
            let name = field(entry, "name");
            assert!(name.as_str().is_some_and(|n| n.len() <= 64), "{name:?}");
        }
    }
}
