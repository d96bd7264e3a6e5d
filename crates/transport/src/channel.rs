//! The blocking channel interface protocols are written against.

use crate::error::TransportError;
use crate::metrics::MetricsSnapshot;
use crate::wire::{self, WireDecode, WireEncode};

/// A reliable, ordered, bidirectional message channel to the peer party.
///
/// Protocols are written as straight-line blocking code over this trait, so
/// the same protocol implementation runs over an in-memory pair
/// ([`crate::memory::duplex`]) for tests/benches and over TCP
/// ([`crate::tcp`]) for genuine two-process deployments.
pub trait Channel {
    /// Sends one framed message.
    fn send_bytes(&mut self, payload: &[u8]) -> Result<(), TransportError>;

    /// Blocks until the next framed message arrives.
    fn recv_bytes(&mut self) -> Result<Vec<u8>, TransportError>;

    /// Traffic counters for this endpoint.
    fn metrics(&self) -> MetricsSnapshot;

    /// Sends a typed value using the [`crate::wire`] codec.
    fn send<T: WireEncode>(&mut self, value: &T) -> Result<(), TransportError>
    where
        Self: Sized,
    {
        self.send_bytes(&value.encode_to_vec())
    }

    /// Receives a typed value; the payload must be exactly one `T`.
    fn recv<T: WireDecode>(&mut self) -> Result<T, TransportError>
    where
        Self: Sized,
    {
        let payload = self.recv_bytes()?;
        T::decode_exact(&payload)
    }

    /// Sends `items` as one batch frame — the items back to back, delimited
    /// by the frame itself: a single round on the link, charged as
    /// `items.len()` logical messages in the metrics. A batch of one puts
    /// the same bytes on the wire, and the same counts in the metrics, as
    /// [`Channel::send`] of the item.
    ///
    /// This is the round-batching primitive: a neighborhood query packs all
    /// of its candidate payloads into one frame instead of paying one
    /// round-trip per candidate.
    fn send_batch<T: WireEncode>(&mut self, items: &[T]) -> Result<(), TransportError>
    where
        Self: Sized,
    {
        let mut payload = Vec::new();
        wire::encode_batch_items(items, &mut payload);
        self.send_bytes(&payload)?;
        self.note_batch_sent(items.len() as u64);
        Ok(())
    }

    /// Receives one batch frame; the payload must be exactly a run of whole
    /// `T`s. Charged as one round and `len` logical messages.
    fn recv_batch<T: WireDecode>(&mut self) -> Result<Vec<T>, TransportError>
    where
        Self: Sized,
    {
        let payload = self.recv_bytes()?;
        let items = wire::decode_batch_items::<T>(&payload)?;
        self.note_batch_received(items.len() as u64);
        Ok(items)
    }

    /// Metrics hook: reclassifies the most recent send as a batch of
    /// `items` logical messages. Implementations with counters override
    /// this; the default is a no-op so metric-less channels stay valid.
    fn note_batch_sent(&mut self, _items: u64) {}

    /// Receive-side counterpart of [`Channel::note_batch_sent`].
    fn note_batch_received(&mut self, _items: u64) {}
}

/// Hard cap on a single frame. Large enough for any ciphertext batch the
/// protocols send (a full 96-point × 4096-bit ciphertext vector is ~50 KiB),
/// small enough to catch stream corruption immediately.
pub const MAX_FRAME_BYTES: u64 = 64 * 1024 * 1024;
