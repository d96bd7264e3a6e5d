//! Umbrella crate for the *Privacy Preserving Distributed DBSCAN
//! Clustering* reproduction (Liu, Xiong, Luo, Huang — EDBT/ICDT 2012
//! Workshops / Transactions on Data Privacy 6, 2013).
//!
//! This crate re-exports the whole workspace so downstream users can depend
//! on one name; it also hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`). The repository's `README.md`
//! has a workspace tour and the engine quickstart; `DESIGN.md` has the
//! system inventory and the documented deviations from the paper's text.
//!
//! * [`ppdbscan`] — the paper's protocols (horizontal, vertical, arbitrary,
//!   enhanced, multiparty) behind the typed [`ppdbscan::session`] API: build
//!   a [`ppdbscan::session::Participant`], run it over any channel, get a
//!   [`ppdbscan::session::SessionOutcome`] (output + negotiated metadata).
//!   The versioned [`ppdbscan::session::Hello`] handshake rejects any
//!   parameter disagreement with a typed
//!   [`ppdbscan::CoreError::HandshakeMismatch`] naming the field,
//! * [`ppds_engine`] — a worker pool of tasks with bounded admission; a
//!   panicking task is a failed task,
//! * [`ppds_server`] — the long-running protocol service: Hello-preamble
//!   session admission, session registry with per-session seed isolation,
//!   bounded-queue load shedding, graceful drain, and the operator HTTP
//!   endpoint,
//! * [`ppds_dbscan`] — plaintext DBSCAN baseline, workload generators,
//!   clustering metrics,
//! * [`ppds_smc`] — Multiplication Protocol, Yao's millionaires, secure
//!   comparison and k-th order statistic,
//! * [`ppds_paillier`] — the Paillier cryptosystem with plaintext-slot
//!   packing,
//! * [`ppds_observe`] — the protocol flight recorder: per-phase span
//!   tracing with traffic attribution, Chrome trace export, and the
//!   operator metrics registry,
//! * [`ppds_transport`] — measured two-party channels (in-memory and TCP),
//! * [`ppds_bigint`] — arbitrary-precision integer substrate.

pub use ppdbscan;
pub use ppds_bigint;
pub use ppds_dbscan;
pub use ppds_engine;
pub use ppds_observe;
pub use ppds_paillier;
pub use ppds_server;
pub use ppds_smc;
pub use ppds_transport;
