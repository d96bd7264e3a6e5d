//! The thread-local tracer: sink installation and the [`Span`] guard.
//!
//! Tracing is scoped per thread: a session installs its sink with
//! [`install`] for the duration of the run and protocol code opens spans
//! with [`span`]/[`span_with`]. With no sink installed, every entry point
//! here is a thread-local read and a branch — labels are not formatted,
//! metrics closures are not called, nothing allocates.

use crate::sink::{SpanKind, TraceSink};
use ppds_transport::MetricsSnapshot;
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    static CURRENT: RefCell<Option<Arc<dyn TraceSink>>> = const { RefCell::new(None) };
}

/// Restores the previously installed sink (if any) when dropped.
#[must_use = "dropping the guard immediately uninstalls the sink"]
pub struct SinkGuard {
    previous: Option<Arc<dyn TraceSink>>,
}

impl Drop for SinkGuard {
    fn drop(&mut self) {
        CURRENT.with(|current| {
            *current.borrow_mut() = self.previous.take();
        });
    }
}

impl std::fmt::Debug for SinkGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkGuard").finish_non_exhaustive()
    }
}

/// Installs `sink` as this thread's tracer until the returned guard drops
/// (the previous sink, if any, is restored — installs nest).
pub fn install(sink: Arc<dyn TraceSink>) -> SinkGuard {
    let previous = CURRENT.with(|current| current.borrow_mut().replace(sink));
    SinkGuard { previous }
}

/// `true` if a sink is installed on this thread.
pub fn enabled() -> bool {
    CURRENT.with(|current| current.borrow().is_some())
}

fn record(kind: SpanKind, label: &str, metrics: MetricsSnapshot) {
    CURRENT.with(|current| {
        if let Some(sink) = current.borrow().as_ref() {
            sink.record(kind, label, metrics);
        }
    });
}

/// An open span. Close it with [`Span::end`], passing the channel snapshot
/// at the phase boundary; if it is instead dropped (an error `?`-return
/// unwound through the phase), the span closes with its *begin* snapshot —
/// a zero traffic delta — so the trace's nesting stays well-formed on
/// every path.
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
#[derive(Debug)]
pub struct Span {
    /// `None` when tracing was disabled at creation.
    open: Option<(String, MetricsSnapshot)>,
}

impl Span {
    /// Closes the span, stamping the end edge with `metrics` (not called
    /// when tracing is off).
    pub fn end<M: FnOnce() -> MetricsSnapshot>(mut self, metrics: M) {
        if let Some((label, _)) = self.open.take() {
            record(SpanKind::End, &label, metrics());
        }
    }

    /// Gives up the open span's label without recording its end edge —
    /// for [`crate::SpanRecorder::finish`] alone, which stamps that edge
    /// itself once the recorder has been taken apart.
    pub(crate) fn release(mut self) -> Option<String> {
        self.open.take().map(|(label, _)| label)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((label, begin)) = self.open.take() {
            record(SpanKind::End, &label, begin);
        }
    }
}

/// Opens a span named `label`, stamping the begin edge with `metrics()`.
/// When no sink is installed both arguments are ignored and the returned
/// span is inert.
pub fn span<M: FnOnce() -> MetricsSnapshot>(label: &str, metrics: M) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let begin = metrics();
    record(SpanKind::Begin, label, begin);
    Span {
        open: Some((label.to_owned(), begin)),
    }
}

/// [`span`] with a lazily formatted label (`"query#3"` and friends): the
/// label closure runs only when a sink is installed, so disabled runs
/// never pay the `format!`.
pub fn span_with<L, M>(label: L, metrics: M) -> Span
where
    L: FnOnce() -> String,
    M: FnOnce() -> MetricsSnapshot,
{
    if !enabled() {
        return Span { open: None };
    }
    let label = label();
    let begin = metrics();
    record(SpanKind::Begin, &label, begin);
    Span {
        open: Some((label, begin)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{SpanRecorder, TraceEvent};

    fn snap(bytes: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            bytes_sent: bytes,
            ..Default::default()
        }
    }

    #[test]
    fn disabled_spans_touch_nothing() {
        assert!(!enabled());
        let span = span("never", || panic!("metrics closure must not run"));
        span.end(|| panic!("end closure must not run"));
        let lazy = span_with(
            || panic!("label closure must not run"),
            || panic!("metrics closure must not run"),
        );
        drop(lazy);
    }

    #[test]
    fn install_nests_and_restores() {
        let outer = SpanRecorder::new();
        let inner = SpanRecorder::new();
        {
            let _a = install(outer.clone());
            assert!(enabled());
            {
                let _b = install(inner.clone());
                span("inner", MetricsSnapshot::default).end(MetricsSnapshot::default);
            }
            span("outer", MetricsSnapshot::default).end(MetricsSnapshot::default);
        }
        assert!(!enabled());
        let inner_labels: Vec<String> = inner
            .finish(None)
            .events
            .into_iter()
            .map(|e| e.label)
            .collect();
        let outer_labels: Vec<String> = outer
            .finish(None)
            .events
            .into_iter()
            .map(|e| e.label)
            .collect();
        assert_eq!(inner_labels, ["inner", "inner"]);
        assert_eq!(outer_labels, ["outer", "outer"]);
    }

    #[test]
    fn explicit_end_records_end_metrics_drop_records_begin_metrics() {
        let rec = SpanRecorder::new();
        {
            let _g = install(rec.clone());
            let s = span("ok", || snap(10));
            s.end(|| snap(25));
            let errored = span("err", || snap(25));
            drop(errored); // simulates a `?`-unwind through the phase
        }
        let events: Vec<TraceEvent> = rec.finish(None).events;
        assert_eq!(events.len(), 4);
        assert_eq!(events[1].metrics, snap(25));
        assert_eq!(events[2].metrics, snap(25));
        assert_eq!(
            events[3].metrics,
            snap(25),
            "drop closes with begin snapshot"
        );
        assert_eq!(events[3].kind, SpanKind::End);
    }
}
