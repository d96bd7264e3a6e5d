#![warn(missing_docs)]

//! **ppds-observe** — the protocol flight recorder.
//!
//! The protocol suite's built-in accounting ([`MetricsSnapshot`],
//! `LeakageLog`, `YaoLedger`) is a whole-session rollup: it answers "how
//! much" but never "which phase". This crate adds the missing axis — spans.
//! A span is a begin/end event pair keyed by the same step-path vocabulary
//! `ProtocolContext::narrow` already uses for randomness substreams
//! (`"establish"`, `"execute"`, `"query#3"`, `"cmp_batch"`, …), carrying a
//! wall-clock timestamp and a channel [`MetricsSnapshot`] at each edge. The
//! difference of the two snapshots scopes bytes/messages/rounds to that
//! phase; the difference of the two timestamps scopes wall time.
//!
//! The design constraints, in order:
//!
//! 1. **Inert when off.** Tracing is opt-in per thread via
//!    [`trace::install`]. With no sink installed, [`trace::span`] is one
//!    thread-local read and a branch — the label is never allocated, the
//!    metrics closure never called, and (critically) *no protocol byte,
//!    label, leakage event, or ledger entry changes either way*. The sink
//!    observes frames and clocks; it never participates in the protocol.
//!    The workspace's `trace_parity` integration test pins byte-identical
//!    wire transcripts with tracing on vs. off across all five modes.
//! 2. **Lock-free on the hot path.** [`SpanRecorder`] appends events into
//!    a pre-allocated slot buffer with one `fetch_add` — no mutex, no
//!    allocation after construction (beyond the label string), no
//!    contention between threads that share a recorder.
//! 3. **One vocabulary.** Span labels reuse the `narrow` step names, so a
//!    trace, a leakage log, and a randomness-derivation path all speak the
//!    same language.
//!
//! A finished [`SessionTrace`] exports two ways: [`SessionTrace::to_chrome_json`]
//! writes Chrome trace-event JSON (load it in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev)), and [`SessionTrace::rollup`]
//! aggregates a flat per-phase table. [`MetricsRegistry`] is the
//! long-running counterpart: named counters, gauges, and per-label traffic
//! rollups that a scheduler (or a future `ppds-server`) exposes as its
//! operator health surface.

pub mod export;
pub mod registry;
pub mod sink;
pub mod trace;

pub use export::{chrome_trace, PhaseRollup, SessionTrace, TraceError};
pub use registry::{Counter, Gauge, MetricsRegistry};
pub use sink::{NoopSink, SpanKind, SpanRecorder, TraceEvent, TraceSink};
pub use trace::{span, span_with, Span};

pub use ppds_transport::MetricsSnapshot;
