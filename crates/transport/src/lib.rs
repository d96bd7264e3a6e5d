#![warn(missing_docs)]

//! Two-party message transport for the SMC protocols.
//!
//! Every protocol in the paper is evaluated by its *communication
//! complexity* (§4.2.2, §4.3.2, §5.1), so this crate treats the wire as a
//! first-class measured object:
//!
//! * [`Channel`] — the blocking send/recv interface all protocols are
//!   written against, with typed helpers built on the [`wire`] codec and
//!   round-batching primitives ([`Channel::send_batch`] /
//!   [`Channel::recv_batch`]) that ship many logical messages as one
//!   latency-paying wire frame — the items back to back, so that a message
//!   is a batch of one,
//! * [`memory::duplex`] — an in-process channel pair used to run Alice and
//!   Bob on two threads,
//! * [`tcp`] — the same framing over real sockets, for running the two
//!   parties as separate processes,
//! * [`ChannelMetrics`] — lock-free per-direction byte, message, and
//!   **round** counters (a batch frame is many messages but one round); the
//!   experiment harness reads these to regenerate the paper's complexity
//!   tables with measured constants,
//! * [`CostModel`] — turns counted bytes/rounds into modeled wall-clock
//!   time for a given latency/bandwidth, so experiments can report network
//!   cost independently of where they actually ran.
//!
//! Framing: every message is a `u32` little-endian length followed by the
//! payload. The 4 header bytes are charged to the metrics on both
//! transports, so in-memory and TCP runs report identical traffic.

pub mod channel;
pub mod error;
pub mod memory;
pub mod metrics;
pub mod tcp;
pub mod wire;

pub use channel::Channel;
pub use error::TransportError;
pub use memory::{duplex, MemoryChannel};
pub use metrics::{ChannelMetrics, CostModel, MetricsSnapshot};
pub use wire::{Reader, WireDecode, WireEncode};

/// Bytes charged per message for framing (u32 length prefix).
pub const FRAME_OVERHEAD_BYTES: u64 = 4;
