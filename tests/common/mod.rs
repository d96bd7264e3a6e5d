//! Shared helpers for the umbrella integration tests: seed-deterministic
//! wrappers that run each protocol family through the typed
//! `ppdbscan::session::Participant` API. The two-party runners live in
//! `ppds_bench` (one canonical copy, built on
//! `ppdbscan::session::run_data_pair`) and are re-exported here.
#![allow(dead_code, unused_imports)] // each test binary uses a different subset

pub use ppds_bench::{
    rng, run_arbitrary_pair, run_enhanced_pair, run_horizontal_pair, run_vertical_pair,
};

use ppdbscan::config::ProtocolConfig;
use ppdbscan::{CoreError, PartyOutput};
use ppds_dbscan::Point;
use ppds_transport::{Channel, MetricsSnapshot, TransportError};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// One direction's sender clocks, oldest frame first.
type Stamps = Arc<Mutex<VecDeque<u64>>>;

/// Counts a session's critical-path hops: a logical clock per party, every
/// frame stamped with its sender's clock, and a receiver that moves its
/// clock to `max(own, stamp + 1)`. A party's clock after the session is the
/// longest chain of frames each sent after the one before it arrived — the
/// one-way link delays the session pays where latency dominates. The exact
/// count per seed makes it a test where wall time would be a benchmark.
///
/// The stamps travel beside the frames, in a queue per direction that both
/// ends share (frames keep their order, and one thread sends per
/// direction), so nothing is added to the wire.
pub struct HopClock<C: Channel> {
    inner: C,
    clock: u64,
    outbound: Stamps,
    inbound: Stamps,
}

impl<C: Channel> HopClock<C> {
    /// Wraps the two ends of one connection.
    pub fn pair(a: C, b: C) -> (HopClock<C>, HopClock<C>) {
        let (a_to_b, b_to_a) = (Stamps::default(), Stamps::default());
        let end = |inner, outbound, inbound| HopClock {
            inner,
            clock: 0,
            outbound,
            inbound,
        };
        (
            end(a, Arc::clone(&a_to_b), Arc::clone(&b_to_a)),
            end(b, b_to_a, a_to_b),
        )
    }

    /// This end's clock: the hops on the longest chain that ends here.
    pub fn hops(&self) -> u64 {
        self.clock
    }
}

impl<C: Channel> Channel for HopClock<C> {
    fn send_bytes(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        // Stamped before the frame leaves, so its receiver finds the stamp.
        self.outbound.lock().unwrap().push_back(self.clock);
        self.inner.send_bytes(payload)
    }

    fn recv_bytes(&mut self) -> Result<Vec<u8>, TransportError> {
        let payload = self.inner.recv_bytes()?;
        let stamp = self.inbound.lock().unwrap().pop_front();
        let stamp = stamp.expect("every frame is stamped by its sender");
        self.clock = self.clock.max(stamp + 1);
        Ok(payload)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics()
    }

    fn note_batch_sent(&mut self, items: u64) {
        self.inner.note_batch_sent(items);
    }

    fn note_batch_received(&mut self, items: u64) {
        self.inner.note_batch_received(items);
    }
}

/// Runs all parties of a multiparty session on an in-memory mesh,
/// returning the bare [`PartyOutput`]s in party-id order.
pub fn run_multiparty(
    cfg: &ProtocolConfig,
    parties: &[Vec<Point>],
    seed: u64,
) -> Result<Vec<PartyOutput>, CoreError> {
    Ok(ppdbscan::session::run_mesh_local(cfg, parties, seed)?
        .into_iter()
        .map(|outcome| outcome.output)
        .collect())
}
