//! Two `Channel` wrappers the harness puts around a socket, both outside
//! the program under test:
//!
//! * [`ShapedChannel`] delays each frame's *delivery* as a link of a given
//!   one-way latency and bandwidth would, without adding a byte to the
//!   wire, so a link-bound session can be measured on loopback;
//! * [`TimedChannel`] records where a party's wall time goes at the socket
//!   boundary (inside `send_bytes`, blocked in `recv_bytes`) and a
//!   frame-size histogram, for the traced pass.

use ppds_transport::{Channel, MetricsSnapshot, TransportError};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A symmetric link: one-way latency and per-direction bandwidth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    pub latency: Duration,
    pub bytes_per_sec: f64,
}

impl Link {
    /// A metro-area link: 2 ms one way, 100 Mbit/s per direction.
    pub const METRO: Link = Link {
        latency: Duration::from_millis(2),
        bytes_per_sec: 12.5e6,
    };

    pub fn describe(&self) -> String {
        format!(
            "{} ms one-way, {} MB/s per direction",
            self.latency.as_secs_f64() * 1e3,
            self.bytes_per_sec / 1e6
        )
    }
}

/// One direction of a shaped link: when the transmitter is next free, and
/// the delivery due-times of frames in flight, oldest first.
#[derive(Debug)]
struct Direction {
    link_free_at: Instant,
    due: VecDeque<Instant>,
}

impl Direction {
    fn new_shared() -> Arc<Mutex<Direction>> {
        Arc::new(Mutex::new(Direction {
            link_free_at: Instant::now(),
            due: VecDeque::new(),
        }))
    }
}

/// One endpoint of a shaped link; build both with [`ShapedChannel::pair`].
///
/// The sender stamps each frame with its due-time — serialisation starts
/// when the transmitter is free (`max(link_free_at, now)`), takes
/// `bytes ÷ bandwidth`, and the frame lands one latency later — and pushes
/// it on the direction's FIFO *before* the frame goes to the socket. The
/// receiver takes the frame off the socket, pops the matching due-time
/// (TCP keeps frame order, one thread sends per direction, so the queues
/// agree) and sleeps until then. Nothing is added to the wire, so
/// [`Channel::metrics`] is the inner channel's.
pub struct ShapedChannel<C: Channel> {
    inner: C,
    link: Link,
    outbound: Arc<Mutex<Direction>>,
    inbound: Arc<Mutex<Direction>>,
}

impl<C: Channel> ShapedChannel<C> {
    /// Wraps the two ends of one connection. Both ends must live in this
    /// process: they share the due-time queues.
    pub fn pair(a: C, b: C, link: Link) -> (ShapedChannel<C>, ShapedChannel<C>) {
        let a_to_b = Direction::new_shared();
        let b_to_a = Direction::new_shared();
        (
            ShapedChannel {
                inner: a,
                link,
                outbound: Arc::clone(&a_to_b),
                inbound: Arc::clone(&b_to_a),
            },
            ShapedChannel {
                inner: b,
                link,
                outbound: b_to_a,
                inbound: a_to_b,
            },
        )
    }
}

impl<C: Channel> Channel for ShapedChannel<C> {
    fn send_bytes(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        let wire_bytes = payload.len() as u64 + ppds_transport::FRAME_OVERHEAD_BYTES;
        {
            let mut dir = self
                .outbound
                .lock()
                .expect("shaper mutex poisoned by a panicked party");
            let start = dir.link_free_at.max(Instant::now());
            dir.link_free_at =
                start + Duration::from_secs_f64(wire_bytes as f64 / self.link.bytes_per_sec);
            let due = dir.link_free_at + self.link.latency;
            dir.due.push_back(due);
        }
        self.inner.send_bytes(payload)
    }

    fn recv_bytes(&mut self) -> Result<Vec<u8>, TransportError> {
        let payload = self.inner.recv_bytes()?;
        let due = self
            .inbound
            .lock()
            .expect("shaper mutex poisoned by a panicked party")
            .due
            .pop_front()
            .expect("every received frame was stamped by the sending end");
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
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

/// Frame sizes fall in power-of-two buckets: bucket `i` holds payloads of
/// `2^(i-1) < len ≤ 2^i` bytes (bucket 0: empty and one-byte frames).
pub const FRAME_BUCKETS: usize = 28;

/// What one endpoint spent at the socket boundary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SocketTimes {
    /// Wall time inside `send_bytes` (encode is the caller's; this is the
    /// write, the flush and — on a shaped link — the due-time stamp).
    pub send: Duration,
    /// Wall time inside `recv_bytes`: waiting for the peer and the link.
    pub recv: Duration,
    pub frames_sent: u64,
    pub frames_received: u64,
    pub payload_bytes: u64,
    /// Sent and received frames by payload size, see [`FRAME_BUCKETS`].
    pub histogram: [u64; FRAME_BUCKETS],
}

impl SocketTimes {
    pub fn frames(&self) -> u64 {
        self.frames_sent + self.frames_received
    }

    pub fn mean_frame_bytes(&self) -> f64 {
        self.payload_bytes as f64 / self.frames().max(1) as f64
    }

    /// The non-empty histogram buckets as `≤64 B: 20,102  ≤128 B: 464`.
    pub fn describe_histogram(&self) -> String {
        let buckets = self
            .histogram
            .iter()
            .enumerate()
            .filter(|(_, &count)| count > 0);
        let parts: Vec<String> = buckets
            .map(|(i, count)| format!("≤{} B: {count}", 1u64 << i))
            .collect();
        parts.join("  ")
    }

    /// Adds another endpoint's (or session's) figures to these.
    pub fn absorb(&mut self, other: &SocketTimes) {
        self.send += other.send;
        self.recv += other.recv;
        self.frames_sent += other.frames_sent;
        self.frames_received += other.frames_received;
        self.payload_bytes += other.payload_bytes;
        for (mine, theirs) in self.histogram.iter_mut().zip(other.histogram) {
            *mine += theirs;
        }
    }

    fn note(&mut self, len: usize) {
        self.payload_bytes += len as u64;
        let bucket = (usize::BITS - len.saturating_sub(1).leading_zeros()) as usize;
        self.histogram[bucket.min(FRAME_BUCKETS - 1)] += 1;
    }
}

/// Times every `send_bytes` and `recv_bytes` of the wrapped channel.
pub struct TimedChannel<C: Channel> {
    inner: C,
    times: SocketTimes,
}

impl<C: Channel> TimedChannel<C> {
    pub fn new(inner: C) -> Self {
        TimedChannel {
            inner,
            times: SocketTimes::default(),
        }
    }

    pub fn into_times(self) -> SocketTimes {
        self.times
    }
}

impl<C: Channel> Channel for TimedChannel<C> {
    fn send_bytes(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        let t0 = Instant::now();
        let result = self.inner.send_bytes(payload);
        self.times.send += t0.elapsed();
        self.times.frames_sent += 1;
        self.times.note(payload.len());
        result
    }

    fn recv_bytes(&mut self) -> Result<Vec<u8>, TransportError> {
        let t0 = Instant::now();
        let result = self.inner.recv_bytes();
        self.times.recv += t0.elapsed();
        if let Ok(payload) = &result {
            self.times.frames_received += 1;
            self.times.note(payload.len());
        }
        result
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

#[cfg(test)]
mod tests {
    use super::*;
    use ppds_transport::duplex;

    fn shaped(link: Link) -> (ShapedChannel<impl Channel>, ShapedChannel<impl Channel>) {
        let (a, b) = duplex();
        ShapedChannel::pair(a, b, link)
    }

    #[test]
    fn latency_and_bandwidth_are_honoured_within_a_tenth() {
        let link = Link {
            latency: Duration::from_millis(20),
            bytes_per_sec: 1.0e6,
        };
        let (mut a, mut b) = shaped(link);
        // 10 frames of 9,996 + 4 bytes: 100 ms of serialisation, then one
        // latency for the last frame to land.
        let t0 = Instant::now();
        for _ in 0..10 {
            a.send_bytes(&vec![7u8; 9_996]).unwrap();
        }
        for _ in 0..10 {
            b.recv_bytes().unwrap();
        }
        let took = t0.elapsed().as_secs_f64();
        assert!(
            (0.120..0.132).contains(&took),
            "took {took} s, expected 0.120 s"
        );

        // A ping-pong pays one latency each way and (here) no bandwidth.
        let t0 = Instant::now();
        for _ in 0..5 {
            a.send_bytes(&[1]).unwrap();
            b.recv_bytes().unwrap();
            b.send_bytes(&[2]).unwrap();
            a.recv_bytes().unwrap();
        }
        let took = t0.elapsed().as_secs_f64();
        assert!(
            (0.200..0.220).contains(&took),
            "took {took} s, expected 0.200 s"
        );
    }

    #[test]
    fn frames_arrive_in_order_with_their_own_due_times() {
        let link = Link {
            latency: Duration::from_millis(5),
            bytes_per_sec: 1.0e6,
        };
        let (mut a, mut b) = shaped(link);
        let sender = std::thread::spawn(move || {
            for i in 0..50u8 {
                a.send_bytes(&vec![i; 1 + 40 * i as usize]).unwrap();
            }
            a
        });
        for i in 0..50u8 {
            let frame = b.recv_bytes().unwrap();
            assert_eq!(frame.len(), 1 + 40 * i as usize);
            assert!(frame.iter().all(|&byte| byte == i));
        }
        let a = sender.join().unwrap();
        assert!(
            a.outbound.lock().unwrap().due.is_empty(),
            "every stamp was consumed"
        );
    }

    #[test]
    fn wrappers_add_nothing_to_the_counters() {
        let (plain_a, plain_b) = duplex();
        let (a, b) = shaped(Link {
            latency: Duration::from_micros(100),
            bytes_per_sec: 1.0e9,
        });
        let (mut plain_a, mut plain_b) = (plain_a, plain_b);
        let (mut a, mut b) = (TimedChannel::new(a), TimedChannel::new(b));
        for payload in [vec![], vec![1u8; 10], vec![2u8; 70_000]] {
            plain_a.send_bytes(&payload).unwrap();
            plain_b.recv_bytes().unwrap();
            a.send_bytes(&payload).unwrap();
            b.recv_bytes().unwrap();
        }
        plain_b.send_batch(&[1u64, 2, 3]).unwrap();
        plain_a.recv_batch::<u64>().unwrap();
        b.send_batch(&[1u64, 2, 3]).unwrap();
        a.recv_batch::<u64>().unwrap();
        assert_eq!(a.metrics(), plain_a.metrics());
        assert_eq!(b.metrics(), plain_b.metrics());

        let times = a.into_times();
        assert_eq!((times.frames_sent, times.frames_received), (3, 1));
        assert_eq!(times.histogram[0], 1, "the empty frame");
        assert_eq!(times.histogram[4], 1, "10 bytes ≤ 16");
        assert_eq!(times.histogram[17], 1, "70,000 bytes ≤ 131,072");
        assert!(times.recv >= Duration::from_micros(100));
    }
}
