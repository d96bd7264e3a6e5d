//! Per-channel traffic accounting and modeled network cost.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Lock-free counters shared by a channel endpoint and whoever wants to read
/// its traffic. Bytes include the 4-byte frame header per message.
///
/// Two message-shaped quantities are tracked per direction:
///
/// * **messages** — logical protocol payloads. A plain send is one message;
///   a batch frame of `k` payloads counts `k` messages, so the figure is
///   comparable between batched and unbatched runs of the same protocol.
/// * **rounds** — wire frames, i.e. latency-paying network hops. A plain
///   send is one round; a batch frame of any size is one round. This is the
///   quantity the [`CostModel`] charges latency on, and the one round
///   batching collapses from `O(pairs)` to `O(1)` per chunk of pairs.
///
/// For unbatched traffic the two coincide (`messages == rounds`).
#[derive(Debug, Default)]
pub struct ChannelMetrics {
    bytes_sent: AtomicU64,
    bytes_received: AtomicU64,
    messages_sent: AtomicU64,
    messages_received: AtomicU64,
    rounds_sent: AtomicU64,
    rounds_received: AtomicU64,
}

impl ChannelMetrics {
    /// Fresh shared counters.
    pub fn new_shared() -> Arc<ChannelMetrics> {
        Arc::new(ChannelMetrics::default())
    }

    /// Records an outbound message of `payload_bytes` payload.
    pub fn record_send(&self, payload_bytes: u64) {
        self.bytes_sent.fetch_add(
            payload_bytes + crate::FRAME_OVERHEAD_BYTES,
            Ordering::Relaxed,
        );
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.rounds_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an inbound message of `payload_bytes` payload.
    pub fn record_recv(&self, payload_bytes: u64) {
        self.bytes_received.fetch_add(
            payload_bytes + crate::FRAME_OVERHEAD_BYTES,
            Ordering::Relaxed,
        );
        self.messages_received.fetch_add(1, Ordering::Relaxed);
        self.rounds_received.fetch_add(1, Ordering::Relaxed);
    }

    /// Reclassifies the most recent recorded send as a batch frame carrying
    /// `items` logical messages: the round count stays at one, the logical
    /// message count becomes `max(items, 1)`.
    pub fn note_batch_send(&self, items: u64) {
        self.messages_sent
            .fetch_add(items.saturating_sub(1), Ordering::Relaxed);
    }

    /// Receive-side counterpart of [`ChannelMetrics::note_batch_send`].
    pub fn note_batch_recv(&self, items: u64) {
        self.messages_received
            .fetch_add(items.saturating_sub(1), Ordering::Relaxed);
    }

    /// Consistent-enough point-in-time copy of the counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            bytes_received: self.bytes_received.load(Ordering::Relaxed),
            messages_sent: self.messages_sent.load(Ordering::Relaxed),
            messages_received: self.messages_received.load(Ordering::Relaxed),
            rounds_sent: self.rounds_sent.load(Ordering::Relaxed),
            rounds_received: self.rounds_received.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero (used between experiment repetitions).
    pub fn reset(&self) {
        self.bytes_sent.store(0, Ordering::Relaxed);
        self.bytes_received.store(0, Ordering::Relaxed);
        self.messages_sent.store(0, Ordering::Relaxed);
        self.messages_received.store(0, Ordering::Relaxed);
        self.rounds_sent.store(0, Ordering::Relaxed);
        self.rounds_received.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time view of a channel's traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Bytes sent by this endpoint (payload + framing).
    pub bytes_sent: u64,
    /// Bytes received by this endpoint.
    pub bytes_received: u64,
    /// Logical messages sent by this endpoint (batch items count singly).
    pub messages_sent: u64,
    /// Logical messages received by this endpoint.
    pub messages_received: u64,
    /// Wire frames sent by this endpoint (a batch frame is one round).
    pub rounds_sent: u64,
    /// Wire frames received by this endpoint.
    pub rounds_received: u64,
}

impl MetricsSnapshot {
    /// Total traffic in both directions, bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }

    /// Total logical message count in both directions.
    pub fn total_messages(&self) -> u64 {
        self.messages_sent + self.messages_received
    }

    /// Total wire rounds in both directions — the latency-paying figure.
    pub fn total_rounds(&self) -> u64 {
        self.rounds_sent + self.rounds_received
    }

    /// Difference between two snapshots of the same counters
    /// (`later - self`), for scoping traffic to a protocol phase.
    ///
    /// Subtraction saturates at zero per field: if the counters were reset
    /// (see [`ChannelMetrics::reset`]) between the two snapshots, the
    /// "later" values can be smaller than the earlier ones, and a phase
    /// delta of zero is the honest answer — not a debug-build panic or a
    /// wrapped astronomically large figure. Debug builds additionally
    /// assert the snapshots are ordered, since a reset mid-phase almost
    /// always indicates a measurement bug.
    pub fn delta(&self, later: &MetricsSnapshot) -> MetricsSnapshot {
        debug_assert!(
            later.bytes_sent >= self.bytes_sent
                && later.bytes_received >= self.bytes_received
                && later.messages_sent >= self.messages_sent
                && later.messages_received >= self.messages_received
                && later.rounds_sent >= self.rounds_sent
                && later.rounds_received >= self.rounds_received,
            "metrics went backwards between snapshots — was ChannelMetrics::reset \
             called mid-phase?"
        );
        MetricsSnapshot {
            bytes_sent: later.bytes_sent.saturating_sub(self.bytes_sent),
            bytes_received: later.bytes_received.saturating_sub(self.bytes_received),
            messages_sent: later.messages_sent.saturating_sub(self.messages_sent),
            messages_received: later
                .messages_received
                .saturating_sub(self.messages_received),
            rounds_sent: later.rounds_sent.saturating_sub(self.rounds_sent),
            rounds_received: later.rounds_received.saturating_sub(self.rounds_received),
        }
    }

    /// Componentwise sum with another snapshot: the aggregation that rolls
    /// one session's parties (or a server's sessions per mode) into a
    /// single traffic figure.
    pub fn merged(&self, other: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            bytes_sent: self.bytes_sent + other.bytes_sent,
            bytes_received: self.bytes_received + other.bytes_received,
            messages_sent: self.messages_sent + other.messages_sent,
            messages_received: self.messages_received + other.messages_received,
            rounds_sent: self.rounds_sent + other.rounds_sent,
            rounds_received: self.rounds_received + other.rounds_received,
        }
    }
}

impl std::ops::Add for MetricsSnapshot {
    type Output = MetricsSnapshot;

    fn add(self, other: MetricsSnapshot) -> MetricsSnapshot {
        self.merged(&other)
    }
}

impl std::ops::AddAssign for MetricsSnapshot {
    fn add_assign(&mut self, other: MetricsSnapshot) {
        *self = self.merged(&other);
    }
}

impl std::iter::Sum for MetricsSnapshot {
    fn sum<I: Iterator<Item = MetricsSnapshot>>(iter: I) -> MetricsSnapshot {
        iter.fold(MetricsSnapshot::default(), |acc, s| acc.merged(&s))
    }
}

impl<'a> std::iter::Sum<&'a MetricsSnapshot> for MetricsSnapshot {
    fn sum<I: Iterator<Item = &'a MetricsSnapshot>>(iter: I) -> MetricsSnapshot {
        iter.fold(MetricsSnapshot::default(), |acc, s| acc.merged(s))
    }
}

/// Models the wall-clock cost of a transcript on a given link.
///
/// Each wire **round** pays one latency hit (the protocols here are strictly
/// ping-pong, so frames never pipeline); payload pays bandwidth. Batching
/// many logical messages into one frame therefore cuts the latency term
/// without changing the bandwidth term.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    /// One-way message latency.
    pub latency: Duration,
    /// Link bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: u64,
}

impl CostModel {
    /// A 1 Gbit/s LAN with 0.2 ms one-way latency.
    ///
    /// # Examples
    ///
    /// A vertical neighborhood query over 63 candidates costs 189 ping-pong
    /// rounds unbatched (3 per comparison) but only 3 when the whole
    /// candidate set rides one frame each way — same bytes, same logical
    /// messages. Even on a LAN the latency term dominates the unbatched run:
    ///
    /// ```
    /// use ppds_transport::{CostModel, MetricsSnapshot};
    ///
    /// let traffic = MetricsSnapshot {
    ///     bytes_sent: 2_000,
    ///     bytes_received: 2_000,
    ///     messages_sent: 126,
    ///     messages_received: 63,
    ///     ..Default::default()
    /// };
    /// let unbatched = MetricsSnapshot { rounds_sent: 126, rounds_received: 63, ..traffic };
    /// let batched = MetricsSnapshot { rounds_sent: 2, rounds_received: 1, ..traffic };
    /// let lan = CostModel::lan();
    /// assert!(lan.estimate(&unbatched) > lan.estimate(&batched) * 10);
    /// ```
    pub fn lan() -> CostModel {
        CostModel {
            latency: Duration::from_micros(200),
            bandwidth_bytes_per_sec: 125_000_000,
        }
    }

    /// A 100 Mbit/s WAN with 20 ms one-way latency (two hospitals on the
    /// public internet — the paper's motivating deployment).
    ///
    /// # Examples
    ///
    /// On a WAN the batched-vs-unbatched delta is the whole ballgame: the
    /// 189-round query above models at ~3.8 s of pure latency, the 3-round
    /// batched equivalent at ~60 ms:
    ///
    /// ```
    /// use ppds_transport::{CostModel, MetricsSnapshot};
    /// use std::time::Duration;
    ///
    /// let unbatched = MetricsSnapshot {
    ///     rounds_sent: 126,
    ///     rounds_received: 63,
    ///     ..Default::default()
    /// };
    /// let batched = MetricsSnapshot { rounds_sent: 2, rounds_received: 1, ..Default::default() };
    /// let wan = CostModel::wan();
    /// assert_eq!(wan.estimate(&unbatched), Duration::from_millis(20) * 189);
    /// assert_eq!(wan.estimate(&batched), Duration::from_millis(20) * 3);
    /// ```
    pub fn wan() -> CostModel {
        CostModel {
            latency: Duration::from_millis(20),
            bandwidth_bytes_per_sec: 12_500_000,
        }
    }

    /// Modeled transfer time for a transcript: one latency hit per wire
    /// round plus payload over bandwidth.
    pub fn estimate(&self, snapshot: &MetricsSnapshot) -> Duration {
        let latency_total = self.latency * snapshot.total_rounds() as u32;
        let transfer_secs = snapshot.total_bytes() as f64 / self.bandwidth_bytes_per_sec as f64;
        latency_total + Duration::from_secs_f64(transfer_secs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_with_frame_overhead() {
        let m = ChannelMetrics::new_shared();
        m.record_send(100);
        m.record_send(50);
        m.record_recv(10);
        let s = m.snapshot();
        assert_eq!(s.bytes_sent, 150 + 2 * crate::FRAME_OVERHEAD_BYTES);
        assert_eq!(s.messages_sent, 2);
        assert_eq!(s.rounds_sent, 2);
        assert_eq!(s.bytes_received, 10 + crate::FRAME_OVERHEAD_BYTES);
        assert_eq!(s.messages_received, 1);
        assert_eq!(s.rounds_received, 1);
        assert_eq!(s.total_bytes(), s.bytes_sent + s.bytes_received);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.total_rounds(), 3);
    }

    #[test]
    fn batch_frames_count_one_round_many_messages() {
        let m = ChannelMetrics::new_shared();
        m.record_send(1000);
        m.note_batch_send(64);
        m.record_recv(1000);
        m.note_batch_recv(64);
        let s = m.snapshot();
        assert_eq!(s.messages_sent, 64);
        assert_eq!(s.rounds_sent, 1);
        assert_eq!(s.messages_received, 64);
        assert_eq!(s.rounds_received, 1);
        // An empty batch still occupies one frame and one logical message.
        m.record_send(0);
        m.note_batch_send(0);
        assert_eq!(m.snapshot().messages_sent, 65);
        assert_eq!(m.snapshot().rounds_sent, 2);
    }

    #[test]
    fn reset_zeroes_counters() {
        let m = ChannelMetrics::new_shared();
        m.record_send(5);
        m.reset();
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn delta_scopes_a_phase() {
        let m = ChannelMetrics::new_shared();
        m.record_send(10);
        let before = m.snapshot();
        m.record_send(20);
        m.record_recv(30);
        let after = m.snapshot();
        let d = before.delta(&after);
        assert_eq!(d.messages_sent, 1);
        assert_eq!(d.rounds_sent, 1);
        assert_eq!(d.bytes_sent, 20 + crate::FRAME_OVERHEAD_BYTES);
        assert_eq!(d.messages_received, 1);
        assert_eq!(d.rounds_received, 1);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "metrics went backwards"))]
    fn delta_across_a_reset_saturates_instead_of_wrapping() {
        let m = ChannelMetrics::new_shared();
        m.record_send(100);
        let before = m.snapshot();
        m.reset();
        m.record_send(5);
        let after = m.snapshot();
        // Debug builds flag the mid-phase reset loudly; release builds
        // saturate to zero rather than wrapping to ~u64::MAX.
        let d = before.delta(&after);
        assert_eq!(d.bytes_sent, 0);
        assert_eq!(d.messages_sent, 0);
        assert_eq!(d.rounds_sent, 0);
    }

    #[test]
    fn snapshots_aggregate_componentwise() {
        let a = MetricsSnapshot {
            bytes_sent: 10,
            bytes_received: 20,
            messages_sent: 1,
            messages_received: 2,
            rounds_sent: 1,
            rounds_received: 2,
        };
        let b = MetricsSnapshot {
            bytes_sent: 5,
            bytes_received: 7,
            messages_sent: 3,
            messages_received: 4,
            rounds_sent: 2,
            rounds_received: 3,
        };
        let sum = a + b;
        assert_eq!(sum.bytes_sent, 15);
        assert_eq!(sum.bytes_received, 27);
        assert_eq!(sum.messages_sent, 4);
        assert_eq!(sum.messages_received, 6);
        assert_eq!(sum.rounds_sent, 3);
        assert_eq!(sum.rounds_received, 5);

        let mut acc = MetricsSnapshot::default();
        acc += a;
        acc += b;
        assert_eq!(acc, sum);
        assert_eq!([a, b].iter().sum::<MetricsSnapshot>(), sum);
        assert_eq!(vec![a, b].into_iter().sum::<MetricsSnapshot>(), sum);
    }

    #[test]
    fn cost_model_estimates() {
        let snapshot = MetricsSnapshot {
            bytes_sent: 1_000_000,
            bytes_received: 1_000_000,
            messages_sent: 5,
            messages_received: 5,
            rounds_sent: 5,
            rounds_received: 5,
        };
        let lan = CostModel::lan().estimate(&snapshot);
        let wan = CostModel::wan().estimate(&snapshot);
        assert!(wan > lan);
        // WAN: 10 rounds * 20ms = 200ms latency + 2MB / 12.5MB/s = 160ms
        let expect = Duration::from_millis(200) + Duration::from_millis(160);
        let diff = wan.abs_diff(expect);
        assert!(diff < Duration::from_millis(1), "wan = {wan:?}");
    }

    #[test]
    fn cost_model_charges_rounds_not_messages() {
        // Same bytes and logical messages, 10x fewer rounds: the latency
        // term must shrink accordingly.
        let unbatched = MetricsSnapshot {
            bytes_sent: 10_000,
            bytes_received: 10_000,
            messages_sent: 100,
            messages_received: 100,
            rounds_sent: 100,
            rounds_received: 100,
        };
        let batched = MetricsSnapshot {
            rounds_sent: 10,
            rounds_received: 10,
            ..unbatched
        };
        let wan = CostModel::wan();
        let slow = wan.estimate(&unbatched);
        let fast = wan.estimate(&batched);
        assert!(
            slow.as_secs_f64() / fast.as_secs_f64() > 8.0,
            "{slow:?} vs {fast:?}"
        );
    }
}
