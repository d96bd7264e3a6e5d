#![warn(missing_docs)]

//! **ppds-engine** — a worker pool of tasks with bounded admission.
//!
//! [`Engine`] owns a pool of worker threads fed from one shared queue.
//! Callers hand it closures ([`Engine::try_submit_task`], a [`TaskFn`]);
//! each worker takes one, runs it, and counts it completed or failed. A
//! task that panics is a failed task: the worker that ran it takes the next
//! message. That is the engine's only kind of work, and the pool does not
//! know what a protocol is — this crate depends on `ppds-observe` for its
//! gauges and on nothing else.
//!
//! The hosted server (`ppds-server`) runs one party of one session per
//! task and keeps what the session produced in its own registry. A caller
//! that wants many *in-process* sessions on the pool does the same thing
//! with less: it submits closures that call `ppdbscan::session`'s
//! `run_data_pair` / `run_mesh_local` and sends each output back over an
//! `mpsc` channel it owns (`examples/engine_throughput.rs`; this crate's
//! integration test runs all five modes that way). Because such a closure
//! runs the *unmodified* session driver with its own seed, its output is
//! bit-for-bit what the same call returns outside the pool — concurrency
//! changes throughput, never answers.
//!
//! ## What the engine reports
//!
//! [`EngineReport`] is four numbers: tasks submitted, completed and failed,
//! and the summed busy time. [`Engine::registry`] exposes the same counts
//! plus two gauges (`engine_queue_depth`, `engine_in_flight`) for a metrics
//! scrape. A reader that sees `completed + failed == submitted` also sees
//! both gauges at zero: a worker moves its finished counter last, with
//! release ordering, and [`Engine::report`] acquires it — an order, not a
//! lock.
//!
//! ## Leakage under concurrency
//!
//! Running sessions concurrently does not weaken the paper's per-session
//! guarantees, because nothing crosses sessions: each gets its own channel
//! pair and keys from its own seeded stream, so each party's leakage log
//! holds exactly what the single-session theorems (9/10/11) permit. The
//! engine itself holds counts and durations — no plaintext, share,
//! neighborhood or byte of traffic.

pub mod scheduler;

pub use scheduler::{Engine, EngineConfig, EngineError, EngineReport, TaskFn};
