//! Server configuration and per-session seed derivation.

use ppdbscan::session::PartyData;
use ppdbscan::ProtocolConfig;
use ppds_smc::Party;
use std::time::Duration;

/// One protocol family the server is willing to host: the server-side
/// config, role, and private data view used for every session of that
/// mode. The mode itself is implied by the [`PartyData`] variant.
#[derive(Debug, Clone)]
pub struct HostedMode {
    /// The server's protocol configuration for this mode. The negotiable
    /// knobs (`batching`, `packing`) are adopted from each client's
    /// preamble; everything else must match or the connection is rejected
    /// with a typed [`crate::proto::ServerReply::Incompatible`].
    pub cfg: ProtocolConfig,
    /// The role the server plays in sessions of this mode (the client
    /// plays the complement).
    pub role: Party,
    /// The server's private data view, cloned into every session.
    pub data: PartyData,
}

/// Everything [`crate::Server::start`] needs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Protocol listener address (`host:port`; port 0 = ephemeral).
    pub listen: String,
    /// Operator endpoint address (`/metrics`, `/healthz`, …).
    pub ops: String,
    /// The protocol families served, one entry per mode.
    pub hosted: Vec<HostedMode>,
    /// Engine worker threads — the maximum number of sessions running
    /// concurrently; further admitted sessions wait in the queue.
    pub workers: usize,
    /// Admission cap: a connection arriving while `engine_queue_depth`
    /// is at or above this is refused with a typed
    /// [`crate::proto::ServerReply::Busy`].
    pub queue_cap: usize,
    /// How long a freshly accepted connection may take to deliver its
    /// preamble `Hello` before it is reaped (counted in
    /// `server_handshake_timeouts`).
    pub handshake_timeout: Duration,
    /// Read and write deadline applied to admitted sessions; bounds how
    /// long a dead client, or one that stops reading, can pin a worker.
    /// `None` = block forever (trusted clients).
    pub session_timeout: Option<Duration>,
    /// Root of the per-session seed derivation (see [`session_seed`]).
    pub base_seed: u64,
    /// Record a flight-recorder trace per session, retrievable from the
    /// operator endpoint as `/trace/<session id>`.
    pub record_traces: bool,
}

impl ServerConfig {
    /// A config serving `hosted` on ephemeral loopback ports with
    /// moderate defaults; override with the `with_*` builders.
    pub fn new(hosted: Vec<HostedMode>) -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".into(),
            ops: "127.0.0.1:0".into(),
            hosted,
            workers: 4,
            queue_cap: 16,
            handshake_timeout: Duration::from_secs(2),
            session_timeout: Some(Duration::from_secs(30)),
            base_seed: 0x5E55_10D5,
            record_traces: true,
        }
    }

    /// Sets the protocol listener address.
    pub fn with_listen(mut self, addr: impl Into<String>) -> Self {
        self.listen = addr.into();
        self
    }

    /// Sets the operator endpoint address.
    pub fn with_ops(mut self, addr: impl Into<String>) -> Self {
        self.ops = addr.into();
        self
    }

    /// Sets the worker count (concurrent session slots).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the admission queue cap.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Sets the preamble read deadline.
    pub fn with_handshake_timeout(mut self, timeout: Duration) -> Self {
        self.handshake_timeout = timeout;
        self
    }

    /// Sets (or clears) the in-session read and write deadline.
    pub fn with_session_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.session_timeout = timeout;
        self
    }

    /// Sets the seed-derivation root.
    pub fn with_base_seed(mut self, seed: u64) -> Self {
        self.base_seed = seed;
        self
    }

    /// Enables or disables per-session flight recording.
    pub fn with_traces(mut self, record: bool) -> Self {
        self.record_traces = record;
        self
    }
}

/// The server-side session seed for session `id` under `base`: a splitmix
/// step keeps neighboring ids far apart while staying a pure function the
/// tests (and a client proposing its own id) can reproduce to compare a
/// server-mediated session against a direct in-process run.
pub fn session_seed(base: u64, id: u64) -> u64 {
    base ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_seeds_are_distinct_and_reproducible() {
        assert_eq!(session_seed(7, 1), session_seed(7, 1));
        assert_ne!(session_seed(7, 1), session_seed(7, 2));
        assert_ne!(session_seed(7, 1), session_seed(8, 1));
    }
}
