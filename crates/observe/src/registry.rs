//! The operator metrics registry: named counters, gauges, and per-label
//! traffic rollups for long-running components (the engine's worker pool,
//! the server hosted on it).
//!
//! Unlike the [`crate::SpanRecorder`] — which captures one session and is
//! then read once — the registry lives as long as the process and is read
//! while it runs. Handles ([`Counter`], [`Gauge`]) are cheap atomics the
//! hot path touches; the registry's own maps are behind mutexes but only
//! on the get-or-create and snapshot paths.

use ppds_transport::MetricsSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing named count (tasks completed, errors seen).
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named level that moves both ways (queue depth, tasks in flight).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }

    /// Overwrites the level.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A process-wide registry of named [`Counter`]s, [`Gauge`]s, and
/// per-label [`MetricsSnapshot`] traffic rollups.
///
/// Get-or-create semantics: two callers asking for the same name share the
/// same underlying atomic, so a component can re-derive its handles from
/// the registry instead of threading them through constructors.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    traffic: Mutex<BTreeMap<String, MetricsSnapshot>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created at zero on first request.
    pub fn counter(&self, name: &str) -> Counter {
        let mut counters = self.counters.lock().expect("registry poisoned");
        let cell = counters
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Arc::clone(cell))
    }

    /// The gauge named `name`, created at zero on first request.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut gauges = self.gauges.lock().expect("registry poisoned");
        let cell = gauges
            .entry(name.to_owned())
            .or_insert_with(|| Arc::new(AtomicI64::new(0)));
        Gauge(Arc::clone(cell))
    }

    /// Folds `snapshot` into the traffic rollup under `label` (typically a
    /// protocol mode name).
    pub fn record_traffic(&self, label: &str, snapshot: MetricsSnapshot) {
        let mut traffic = self.traffic.lock().expect("registry poisoned");
        let entry = traffic.entry(label.to_owned()).or_default();
        *entry += snapshot;
    }

    /// The accumulated traffic rollup under `label`, if any was recorded.
    pub fn traffic(&self, label: &str) -> Option<MetricsSnapshot> {
        self.traffic
            .lock()
            .expect("registry poisoned")
            .get(label)
            .copied()
    }

    /// Every counter's current value, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect()
    }

    /// Every gauge's current level, sorted by name.
    pub fn gauges(&self) -> Vec<(String, i64)> {
        self.gauges
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(name, cell)| (name.clone(), cell.load(Ordering::Relaxed)))
            .collect()
    }

    /// The whole registry as a flat `name value` text block (one metric per
    /// line, traffic rollups expanded per field) — the shape a scrape
    /// endpoint or a log line wants.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in self.counters() {
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in self.gauges() {
            let _ = writeln!(out, "{name} {value}");
        }
        let traffic = self.traffic.lock().expect("registry poisoned");
        for (label, snap) in traffic.iter() {
            let _ = writeln!(
                out,
                "traffic_bytes_sent{{label=\"{label}\"}} {}",
                snap.bytes_sent
            );
            let _ = writeln!(
                out,
                "traffic_bytes_received{{label=\"{label}\"}} {}",
                snap.bytes_received
            );
            let _ = writeln!(
                out,
                "traffic_messages_sent{{label=\"{label}\"}} {}",
                snap.messages_sent
            );
            let _ = writeln!(
                out,
                "traffic_messages_received{{label=\"{label}\"}} {}",
                snap.messages_received
            );
            let _ = writeln!(
                out,
                "traffic_rounds_sent{{label=\"{label}\"}} {}",
                snap.rounds_sent
            );
            let _ = writeln!(
                out,
                "traffic_rounds_received{{label=\"{label}\"}} {}",
                snap.rounds_received
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state_by_name() {
        let registry = MetricsRegistry::new();
        let a = registry.counter("jobs");
        let b = registry.counter("jobs");
        a.inc();
        b.add(2);
        assert_eq!(registry.counter("jobs").get(), 3);

        let g = registry.gauge("depth");
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(registry.gauge("depth").get(), 1);
        g.set(-5);
        assert_eq!(registry.gauge("depth").get(), -5);
    }

    #[test]
    fn traffic_rollups_accumulate() {
        let registry = MetricsRegistry::new();
        let snap = MetricsSnapshot {
            bytes_sent: 10,
            messages_sent: 2,
            ..Default::default()
        };
        registry.record_traffic("vertical", snap);
        registry.record_traffic("vertical", snap);
        let total = registry.traffic("vertical").unwrap();
        assert_eq!(total.bytes_sent, 20);
        assert_eq!(total.messages_sent, 4);
        assert!(registry.traffic("horizontal").is_none());
    }

    #[test]
    fn render_text_lists_everything() {
        let registry = MetricsRegistry::new();
        registry.counter("engine_jobs_completed").add(7);
        registry.gauge("engine_queue_depth").set(3);
        registry.record_traffic(
            "enhanced",
            MetricsSnapshot {
                bytes_sent: 42,
                ..Default::default()
            },
        );
        let text = registry.render_text();
        assert!(text.contains("engine_jobs_completed 7"));
        assert!(text.contains("engine_queue_depth 3"));
        assert!(text.contains("traffic_bytes_sent{label=\"enhanced\"} 42"));
    }

    #[test]
    fn concurrent_handle_use_is_consistent() {
        let registry = Arc::new(MetricsRegistry::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    let counter = registry.counter("hits");
                    let gauge = registry.gauge("level");
                    for _ in 0..1000 {
                        counter.inc();
                        gauge.inc();
                        gauge.dec();
                    }
                });
            }
        });
        assert_eq!(registry.counter("hits").get(), 4000);
        assert_eq!(registry.gauge("level").get(), 0);
    }
}
