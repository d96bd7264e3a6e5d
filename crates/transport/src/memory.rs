//! In-process channel pair backed by two `std::sync::mpsc` queues.
//!
//! This is the default substrate for running the two protocol parties on two
//! threads of one process: same framing and byte accounting as TCP, zero
//! setup. See DESIGN.md — the semi-honest model cares about transcripts, not
//! physical separation, so measured traffic here equals measured traffic on
//! sockets.

use crate::channel::{Channel, MAX_FRAME_BYTES};
use crate::error::TransportError;
use crate::metrics::{ChannelMetrics, MetricsSnapshot};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// One endpoint of an in-memory duplex channel.
pub struct MemoryChannel {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    metrics: Arc<ChannelMetrics>,
}

impl MemoryChannel {
    /// Shared handle to this endpoint's counters (usable from the spawning
    /// thread while the endpoint itself has moved into a worker thread).
    pub fn metrics_handle(&self) -> Arc<ChannelMetrics> {
        Arc::clone(&self.metrics)
    }
}

/// Creates a connected pair of in-memory endpoints.
///
/// Everything endpoint A sends, endpoint B receives, and vice versa. Each
/// endpoint has independent metrics; by symmetry
/// `a.bytes_sent == b.bytes_received` at every quiescent point.
pub fn duplex() -> (MemoryChannel, MemoryChannel) {
    let (a_to_b_tx, a_to_b_rx) = channel();
    let (b_to_a_tx, b_to_a_rx) = channel();
    let a = MemoryChannel {
        tx: a_to_b_tx,
        rx: b_to_a_rx,
        metrics: ChannelMetrics::new_shared(),
    };
    let b = MemoryChannel {
        tx: b_to_a_tx,
        rx: a_to_b_rx,
        metrics: ChannelMetrics::new_shared(),
    };
    (a, b)
}

impl Channel for MemoryChannel {
    fn send_bytes(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        if payload.len() as u64 > MAX_FRAME_BYTES {
            return Err(TransportError::FrameTooLarge {
                announced: payload.len() as u64,
                limit: MAX_FRAME_BYTES,
            });
        }
        self.tx
            .send(payload.to_vec())
            .map_err(|_| TransportError::Disconnected)?;
        self.metrics.record_send(payload.len() as u64);
        Ok(())
    }

    fn recv_bytes(&mut self) -> Result<Vec<u8>, TransportError> {
        let payload = self.rx.recv().map_err(|_| TransportError::Disconnected)?;
        self.metrics.record_recv(payload.len() as u64);
        Ok(payload)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    fn note_batch_sent(&mut self, items: u64) {
        self.metrics.note_batch_send(items);
    }

    fn note_batch_received(&mut self, items: u64) {
        self.metrics.note_batch_recv(items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::WireEncode;
    use crate::FRAME_OVERHEAD_BYTES;
    use ppds_bigint::BigUint;

    #[test]
    fn ping_pong() {
        let (mut a, mut b) = duplex();
        a.send(&42u64).unwrap();
        assert_eq!(b.recv::<u64>().unwrap(), 42);
        b.send(&BigUint::from_u64(7)).unwrap();
        assert_eq!(a.recv::<BigUint>().unwrap(), BigUint::from_u64(7));
    }

    #[test]
    fn metrics_are_symmetric() {
        let (mut a, mut b) = duplex();
        a.send(&vec![1u64, 2, 3]).unwrap();
        let _ = b.recv::<Vec<u64>>().unwrap();
        let (ma, mb) = (a.metrics(), b.metrics());
        assert_eq!(ma.bytes_sent, mb.bytes_received);
        assert_eq!(ma.messages_sent, 1);
        assert_eq!(mb.messages_received, 1);
        assert_eq!(ma.bytes_received, 0);
    }

    #[test]
    fn byte_accounting_exact() {
        let (mut a, mut b) = duplex();
        let payload = 5u64.encode_to_vec();
        a.send_bytes(&payload).unwrap();
        let _ = b.recv_bytes().unwrap();
        assert_eq!(a.metrics().bytes_sent, 8 + FRAME_OVERHEAD_BYTES);
    }

    #[test]
    fn disconnect_reported() {
        let (mut a, b) = duplex();
        drop(b);
        assert!(matches!(a.send(&1u64), Err(TransportError::Disconnected)));
        assert!(matches!(a.recv::<u64>(), Err(TransportError::Disconnected)));
    }

    #[test]
    fn messages_are_ordered_and_buffered() {
        let (mut a, mut b) = duplex();
        for i in 0..100u64 {
            a.send(&i).unwrap();
        }
        for i in 0..100u64 {
            assert_eq!(b.recv::<u64>().unwrap(), i);
        }
    }

    #[test]
    fn threads_can_run_both_ends() {
        let (mut a, mut b) = duplex();
        let handle = std::thread::spawn(move || {
            let x: u64 = b.recv().unwrap();
            b.send(&(x + 1)).unwrap();
            b.metrics()
        });
        a.send(&41u64).unwrap();
        assert_eq!(a.recv::<u64>().unwrap(), 42);
        let mb = handle.join().unwrap();
        assert_eq!(mb.messages_sent, 1);
        assert_eq!(mb.messages_received, 1);
    }

    #[test]
    fn oversized_frame_rejected() {
        let (mut a, _b) = duplex();
        let huge = vec![0u8; (MAX_FRAME_BYTES + 1) as usize];
        assert!(matches!(
            a.send_bytes(&huge),
            Err(TransportError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn wrong_type_decode_fails_cleanly() {
        let (mut a, mut b) = duplex();
        a.send(&7u32).unwrap();
        assert!(b.recv::<u64>().is_err());
    }

    #[test]
    fn batch_is_one_round_many_messages() {
        let (mut a, mut b) = duplex();
        let items: Vec<u64> = (0..50).collect();
        a.send_batch(&items).unwrap();
        let got: Vec<u64> = b.recv_batch().unwrap();
        assert_eq!(got, items);
        let (ma, mb) = (a.metrics(), b.metrics());
        assert_eq!(ma.messages_sent, 50);
        assert_eq!(ma.rounds_sent, 1);
        assert_eq!(mb.messages_received, 50);
        assert_eq!(mb.rounds_received, 1);
        assert_eq!(ma.bytes_sent, mb.bytes_received);
        // The batch payload is the items and nothing else.
        assert_eq!(ma.bytes_sent, 50 * 8 + FRAME_OVERHEAD_BYTES);
    }

    #[test]
    fn unbatched_sends_keep_messages_equal_to_rounds() {
        let (mut a, mut b) = duplex();
        for i in 0..5u64 {
            a.send(&i).unwrap();
            let _ = b.recv::<u64>().unwrap();
        }
        assert_eq!(a.metrics().messages_sent, a.metrics().rounds_sent);
        assert_eq!(b.metrics().messages_received, b.metrics().rounds_received);
    }
}
