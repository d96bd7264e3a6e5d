//! Trace events, the sink trait, and the lock-free [`SpanRecorder`].

use crate::export::SessionTrace;
use crate::trace::Span;
use ppds_transport::MetricsSnapshot;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Whether an event opens or closes a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// Span begin: the snapshot is the channel state *entering* the phase.
    Begin,
    /// Span end: the snapshot is the channel state *leaving* the phase.
    End,
}

/// One recorded span edge.
///
/// Events on the same thread are strictly ordered (a thread's `record`
/// calls are sequential), so per-thread begin/end sequences replay into a
/// well-formed span tree — [`SessionTrace::validate`] checks exactly that.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Begin or end.
    pub kind: SpanKind,
    /// Step label, from the same vocabulary as `ProtocolContext::narrow`
    /// (`"establish"`, `"query#3"`, `"cmp_batch"`, …).
    pub label: String,
    /// Recorder-local thread id (dense, starting at 0 in stamp order — not
    /// the OS thread id).
    pub thread: u64,
    /// Nanoseconds since the recorder's epoch.
    pub t_ns: u64,
    /// Channel traffic counters at this edge. A span with no channel in
    /// scope (the CPU-only `unpack`) carries the default (all-zero)
    /// snapshot on both edges — a zero delta.
    pub metrics: MetricsSnapshot,
}

/// Where span edges go. Implementations must be cheap and non-blocking:
/// the sink is called from the protocol hot path (albeit per *phase*, not
/// per record), and from any thread that installed it.
///
/// The sink is an observer, never a participant: implementations must not
/// touch the channel, the randomness tree, or any protocol state. The
/// workspace's trace-parity tests treat any wire or output divergence
/// between sink-on and sink-off runs as a bug.
pub trait TraceSink: Send + Sync {
    /// Records one span edge. `label` is borrowed so disabled or
    /// discarding sinks never force an allocation.
    fn record(&self, kind: SpanKind, label: &str, metrics: MetricsSnapshot);
}

/// The no-op default sink: discards every event. Installing this is
/// equivalent to (but marginally more expensive than) installing nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn record(&self, _kind: SpanKind, _label: &str, _metrics: MetricsSnapshot) {}
}

/// Dense per-process thread numbering for trace events. `std`'s `ThreadId`
/// has no stable integer accessor, and trace viewers want small tids
/// anyway, so the recorder hands out its own: first thread to record gets
/// 0, the next 1, and so on.
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
}

/// This thread's dense trace id.
pub(crate) fn current_thread_id() -> u64 {
    THREAD_ID.with(|id| *id)
}

/// Events per lazily allocated block of a [`SpanRecorder`]: 13 KB, which a
/// sub-millisecond session that records twenty edges can afford to build,
/// walk and free (at 1,024 slots that was 106 KB and ≈ 12 µs of a 700 µs
/// session; a session that fills 41,000 slots does not notice either way).
const BLOCK: usize = 128;

type Block = Box<[OnceLock<TraceEvent>]>;

/// A lock-free, bounded event buffer: the [`TraceSink`] a traced session
/// records into.
///
/// Appending claims a slot with one `fetch_add` and publishes the event
/// through a [`OnceLock`] — no mutex anywhere on the record path, so
/// threads sharing a recorder never contend. The buffer is
/// bounded (capacity fixed at construction); events past the end are
/// counted in [`SpanRecorder::dropped_events`] rather than blocking or
/// reallocating. Slot order is the global event order; each thread's own
/// events are claimed in program order, which is all the span-tree replay
/// needs.
///
/// Slots live in blocks of 128 events, each allocated by the first
/// event that lands in it: a recorder sized for the worst case costs a
/// session only the blocks it fills, on construction and on teardown alike
/// (at 2¹⁷ slots the eager buffer was 13 MB to fault in and unmap around a
/// 40 ms session that recorded 112 events).
///
/// One recorder traces one session: [`SpanRecorder::finish`] moves the
/// buffer's events into a [`SessionTrace`] for export.
pub struct SpanRecorder {
    epoch: Instant,
    capacity: usize,
    blocks: Box<[OnceLock<Block>]>,
    next: AtomicUsize,
    dropped: AtomicU64,
}

impl SpanRecorder {
    /// Default slot count — generous for any workload in this repo (a
    /// traced n = 36 session records a few thousand edges).
    pub const DEFAULT_CAPACITY: usize = 1 << 16;

    /// A recorder with [`SpanRecorder::DEFAULT_CAPACITY`] slots, ready to
    /// hand to `Participant::trace`.
    pub fn new() -> Arc<SpanRecorder> {
        SpanRecorder::with_capacity(SpanRecorder::DEFAULT_CAPACITY)
    }

    /// A recorder with exactly `capacity` event slots.
    pub fn with_capacity(capacity: usize) -> Arc<SpanRecorder> {
        Arc::new(SpanRecorder {
            epoch: Instant::now(),
            capacity,
            blocks: (0..capacity.div_ceil(BLOCK))
                .map(|_| OnceLock::new())
                .collect(),
            next: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// Events recorded so far (clamped to capacity).
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Acquire).min(self.capacity)
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events that arrived after the buffer filled and were discarded.
    pub fn dropped_events(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Turns the recorded events into an exportable [`SessionTrace`].
    /// Call after the traced session completes. The last handle to the
    /// recorder — the usual case once the session's sink guard is dropped
    /// — gives its events away; while other handles exist they are copied
    /// instead (concurrent recording stays safe, but still-in-flight
    /// events may be missed).
    ///
    /// `closing` is the session's last span, still open, with the snapshot
    /// for its end edge. That edge is stamped here, on the calling thread,
    /// *after* the events have moved out and the slot blocks are freed, so
    /// the recorder's own teardown lies inside the session's last top-level
    /// span rather than behind it. (While other handles exist the edge goes
    /// into the shared buffer first, so every handle sees the span closed.)
    pub fn finish(self: Arc<Self>, closing: Option<(Span, MetricsSnapshot)>) -> SessionTrace {
        let closing =
            closing.and_then(|(span, metrics)| span.release().map(|label| (label, metrics)));
        match Arc::try_unwrap(self) {
            Ok(recorder) => {
                let (len, mut dropped) = (recorder.len(), recorder.dropped_events());
                let mut events = Vec::with_capacity(len + 1);
                events.extend(
                    recorder
                        .blocks
                        .into_vec()
                        .into_iter()
                        .filter_map(OnceLock::into_inner)
                        .flat_map(<[_]>::into_vec)
                        .take(len)
                        .filter_map(OnceLock::into_inner),
                );
                match closing {
                    Some((label, metrics)) if len < recorder.capacity => events.push(TraceEvent {
                        kind: SpanKind::End,
                        label,
                        thread: current_thread_id(),
                        t_ns: recorder.epoch.elapsed().as_nanos() as u64,
                        metrics,
                    }),
                    Some(_) => dropped += 1,
                    None => {}
                }
                SessionTrace { events, dropped }
            }
            Err(shared) => {
                if let Some((label, metrics)) = closing {
                    shared.record(SpanKind::End, &label, metrics);
                }
                let events = shared
                    .blocks
                    .iter()
                    .filter_map(OnceLock::get)
                    .flat_map(|block| block.iter())
                    .take(shared.len())
                    .filter_map(|slot| slot.get().cloned())
                    .collect();
                SessionTrace {
                    events,
                    dropped: shared.dropped_events(),
                }
            }
        }
    }
}

impl TraceSink for SpanRecorder {
    fn record(&self, kind: SpanKind, label: &str, metrics: MetricsSnapshot) {
        // The clock comes first: claiming a slot can mean building a block,
        // and an edge must not be stamped later than the work it opens.
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        let slot = self.next.fetch_add(1, Ordering::AcqRel);
        if slot >= self.capacity {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let block =
            self.blocks[slot / BLOCK].get_or_init(|| (0..BLOCK).map(|_| OnceLock::new()).collect());
        let event = TraceEvent {
            kind,
            label: label.to_owned(),
            thread: current_thread_id(),
            t_ns,
            metrics,
        };
        block[slot % BLOCK]
            .set(event)
            .expect("slot claimed exclusively");
    }
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("capacity", &self.capacity)
            .field("recorded", &self.len())
            .field("dropped", &self.dropped_events())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_keeps_claim_order_and_counts_drops() {
        let rec = SpanRecorder::with_capacity(4);
        for i in 0..6u64 {
            rec.record(
                SpanKind::Begin,
                &format!("s{i}"),
                MetricsSnapshot::default(),
            );
        }
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.dropped_events(), 2);
        // A second handle forces the copying path; the last one moves.
        let copied = Arc::clone(&rec).finish(None);
        let trace = rec.finish(None);
        assert_eq!(copied.events, trace.events);
        let labels: Vec<&str> = trace.events.iter().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, ["s0", "s1", "s2", "s3"]);
        assert_eq!(trace.dropped, 2);
    }

    #[test]
    fn blocks_fill_on_demand_and_keep_global_order() {
        let rec = SpanRecorder::with_capacity(2 * BLOCK + 1);
        assert!(
            rec.blocks.iter().all(|b| b.get().is_none()),
            "nothing up front"
        );
        for i in 0..2 * BLOCK + 3 {
            rec.record(SpanKind::Begin, &i.to_string(), MetricsSnapshot::default());
        }
        assert_eq!(rec.blocks.len(), 3);
        assert_eq!((rec.len(), rec.dropped_events()), (2 * BLOCK + 1, 2));
        let trace = rec.finish(None);
        assert_eq!(trace.events.len(), 2 * BLOCK + 1);
        assert!(trace
            .events
            .iter()
            .enumerate()
            .all(|(i, e)| e.label == i.to_string()));
    }

    #[test]
    fn concurrent_recording_loses_nothing_under_capacity() {
        let rec = SpanRecorder::with_capacity(1024);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let rec = Arc::clone(&rec);
                scope.spawn(move || {
                    for i in 0..100 {
                        rec.record(
                            SpanKind::Begin,
                            &format!("t{t}.{i}"),
                            MetricsSnapshot::default(),
                        );
                        rec.record(
                            SpanKind::End,
                            &format!("t{t}.{i}"),
                            MetricsSnapshot::default(),
                        );
                    }
                });
            }
        });
        let trace = rec.finish(None);
        assert_eq!(trace.events.len(), 800);
        assert_eq!(trace.dropped, 0);
        // Each thread's own events stay in program order.
        for t in 0..4 {
            let thread_events: Vec<&TraceEvent> = trace
                .events
                .iter()
                .filter(|e| e.label.starts_with(&format!("t{t}.")))
                .collect();
            assert_eq!(thread_events.len(), 200);
            for pair in thread_events.chunks(2) {
                assert_eq!(pair[0].kind, SpanKind::Begin);
                assert_eq!(pair[1].kind, SpanKind::End);
                assert_eq!(pair[0].label, pair[1].label);
            }
        }
    }

    #[test]
    fn finish_stamps_the_closing_edge_last_on_both_arms() {
        use crate::trace::{install, span};
        let snap = |bytes_sent| MetricsSnapshot {
            bytes_sent,
            ..Default::default()
        };
        for keep_second_handle in [false, true] {
            let rec = SpanRecorder::with_capacity(BLOCK + 8);
            let guard = install(rec.clone());
            span("first", || snap(0)).end(|| snap(1));
            let last = span("last", || snap(1));
            span("inner", || snap(1)).end(|| snap(2));
            drop(guard);
            let second = keep_second_handle.then(|| rec.clone());
            let trace = rec.finish(Some((last, snap(7))));
            trace.validate().expect("closed by finish");
            let closing = trace.events.last().unwrap();
            assert_eq!(
                (closing.kind, closing.label.as_str(), closing.metrics),
                (SpanKind::End, "last", snap(7)),
                "end snapshot, not the begin one"
            );
            assert_eq!(closing.thread, trace.events[0].thread);
            assert!(trace.events.iter().all(|e| e.t_ns <= closing.t_ns));
            assert_eq!(trace.events.len(), 6);
            // Released, not dropped: exactly one end edge for `last`.
            let ends = trace.events.iter().filter(|e| e.label == "last").count();
            assert_eq!(ends, 2);
            if let Some(second) = second {
                assert_eq!(second.finish(None), trace, "every handle sees it closed");
            }
        }
        // A full buffer drops the closing edge like any other.
        let rec = SpanRecorder::with_capacity(1);
        let guard = install(rec.clone());
        let only = span("only", MetricsSnapshot::default);
        drop(guard);
        let trace = rec.finish(Some((only, MetricsSnapshot::default())));
        assert_eq!((trace.events.len(), trace.dropped), (1, 1));
        // An inert span (no sink when it opened) closes nothing.
        let inert = span("never", MetricsSnapshot::default);
        let trace = SpanRecorder::new().finish(Some((inert, MetricsSnapshot::default())));
        assert!(trace.is_empty());
    }

    #[test]
    fn timestamps_are_monotonic_per_thread() {
        let rec = SpanRecorder::new();
        rec.record(SpanKind::Begin, "a", MetricsSnapshot::default());
        rec.record(SpanKind::End, "a", MetricsSnapshot::default());
        let trace = rec.finish(None);
        assert!(trace.events[0].t_ns <= trace.events[1].t_ns);
        assert_eq!(trace.events[0].thread, trace.events[1].thread);
    }
}
