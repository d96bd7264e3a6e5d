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
use ppds_transport::{Channel, MetricsSnapshot, TransportError, FRAME_OVERHEAD_BYTES};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

/// What one direction of a [`Buffered`] pair holds.
#[derive(Default)]
struct Backlog {
    /// Bytes written and not yet read.
    unread: usize,
    /// Sizes of the frames begun and not yet read, oldest first.
    frames: VecDeque<usize>,
}

/// One direction of a [`Buffered`] pair, shared by its two ends.
#[derive(Default)]
struct Pipe {
    backlog: Mutex<Backlog>,
    changed: Condvar,
}

impl Pipe {
    /// Waits until `ready` holds of the backlog, then applies `step` to it
    /// and wakes the other end — or gives up with `Timeout` at `deadline`.
    fn when<T>(
        &self,
        deadline: Instant,
        ready: impl Fn(&Backlog) -> bool,
        step: impl FnOnce(&mut Backlog) -> T,
    ) -> Result<T, TransportError> {
        let mut backlog = self.backlog.lock().unwrap();
        while !ready(&backlog) {
            let left = deadline
                .checked_duration_since(Instant::now())
                .ok_or(TransportError::Timeout)?;
            backlog = self.changed.wait_timeout(backlog, left).unwrap().0;
        }
        let out = step(&mut backlog);
        self.changed.notify_all();
        Ok(out)
    }
}

/// A connection whose ends buffer at most `capacity` unread bytes a
/// direction, as a socket with that much buffering does: a sender writes a
/// frame — its payload and length prefix — as room appears and blocks while
/// none is left, and a reader drains a frame as its bytes arrive, so a
/// frame larger than the buffer still passes. Every read first sleeps
/// `lag`, so senders race ahead and the buffers fill. A wait past
/// `patience` — a send for room, a read for bytes — returns
/// [`TransportError::Timeout`], so two parties both blocked in `send` fail
/// instead of hanging. Frames themselves travel over the wrapped channel,
/// which keeps the metrics.
pub struct Buffered<C: Channel> {
    inner: C,
    capacity: usize,
    lag: Duration,
    patience: Duration,
    outbound: Arc<Pipe>,
    inbound: Arc<Pipe>,
}

impl<C: Channel> Buffered<C> {
    /// Wraps the two ends of one connection.
    pub fn pair(
        a: C,
        b: C,
        capacity: usize,
        lag: Duration,
        patience: Duration,
    ) -> (Buffered<C>, Buffered<C>) {
        let (a_to_b, b_to_a) = (Arc::<Pipe>::default(), Arc::<Pipe>::default());
        let end = |inner, outbound, inbound| Buffered {
            inner,
            capacity,
            lag,
            patience,
            outbound,
            inbound,
        };
        (
            end(a, Arc::clone(&a_to_b), Arc::clone(&b_to_a)),
            end(b, b_to_a, a_to_b),
        )
    }
}

impl<C: Channel> Channel for Buffered<C> {
    fn send_bytes(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        let (deadline, capacity) = (Instant::now() + self.patience, self.capacity);
        let mut left = payload.len() + FRAME_OVERHEAD_BYTES as usize;
        let size = left;
        self.outbound
            .when(deadline, |_| true, |b| b.frames.push_back(size))?;
        while left > 0 {
            left -= self.outbound.when(
                deadline,
                |b| b.unread < capacity,
                |b| {
                    let room = (capacity - b.unread).min(left);
                    b.unread += room;
                    room
                },
            )?;
        }
        self.inner.send_bytes(payload)
    }

    fn recv_bytes(&mut self) -> Result<Vec<u8>, TransportError> {
        std::thread::sleep(self.lag);
        let deadline = Instant::now() + self.patience;
        let mut left = self.inbound.when(
            deadline,
            |b| !b.frames.is_empty(),
            |b| b.frames.pop_front().expect("a frame has begun"),
        )?;
        while left > 0 {
            left -= self.inbound.when(
                deadline,
                |b| b.unread > 0,
                |b| {
                    let read = b.unread.min(left);
                    b.unread -= read;
                    read
                },
            )?;
        }
        self.inner.recv_bytes()
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
