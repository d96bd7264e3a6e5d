//! TCP transport: the same framed protocol over real sockets.
//!
//! Lets the two parties run as separate processes (see
//! `examples/hospitals_horizontal.rs --mode tcp`). Framing is a `u32`
//! little-endian payload length followed by the payload, matching the bytes
//! charged by [`crate::metrics::ChannelMetrics`] on the in-memory transport.

use crate::channel::{Channel, MAX_FRAME_BYTES};
use crate::error::TransportError;
use crate::metrics::{ChannelMetrics, MetricsSnapshot};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// One endpoint of a framed TCP connection.
pub struct TcpChannel {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    metrics: Arc<ChannelMetrics>,
}

impl TcpChannel {
    /// Connects to a listening peer.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<TcpChannel, TransportError> {
        let stream = TcpStream::connect(addr)?;
        TcpChannel::from_stream(stream)
    }

    /// Connects to a listening peer, giving up with
    /// [`TransportError::Timeout`] after `timeout` instead of waiting for
    /// the OS connect deadline (minutes on a black-holed route).
    pub fn connect_timeout(
        addr: &SocketAddr,
        timeout: Duration,
    ) -> Result<TcpChannel, TransportError> {
        let stream = TcpStream::connect_timeout(addr, timeout).map_err(map_io_timeout)?;
        TcpChannel::from_stream(stream)
    }

    /// Accepts one inbound connection from `listener`.
    pub fn accept(listener: &TcpListener) -> Result<TcpChannel, TransportError> {
        let (stream, _peer) = listener.accept()?;
        TcpChannel::from_stream(stream)
    }

    /// Wraps an established stream.
    pub fn from_stream(stream: TcpStream) -> Result<TcpChannel, TransportError> {
        stream.set_nodelay(true)?; // ping-pong protocols: don't batch
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        Ok(TcpChannel {
            reader,
            writer,
            metrics: ChannelMetrics::new_shared(),
        })
    }

    /// Bounds every subsequent blocking read and write on the socket: once
    /// no byte arrives for `timeout`, [`Channel::recv_bytes`] returns
    /// [`TransportError::Timeout`] instead of hanging forever on a dead or
    /// stalled peer, and once the peer takes no byte for `timeout` — its
    /// receive window and this side's send buffer both full —
    /// [`Channel::send_bytes`] does the same. `None` restores unbounded
    /// blocking.
    ///
    /// A fired timeout is **connection-fatal** — it may strike mid-frame,
    /// after part of a payload was consumed or written, so the stream
    /// position is no longer trustworthy. Callers must drop the channel; the
    /// server's handshake and session legs do exactly that.
    pub fn set_timeout(&self, timeout: Option<Duration>) -> Result<(), TransportError> {
        // The reader and the writer are two handles on one socket.
        let socket = self.reader.get_ref();
        socket.set_read_timeout(timeout)?;
        socket.set_write_timeout(timeout)?;
        Ok(())
    }

    /// The remote endpoint's address.
    pub fn peer_addr(&self) -> Result<SocketAddr, TransportError> {
        Ok(self.reader.get_ref().peer_addr()?)
    }

    /// Shared handle to this endpoint's counters.
    pub fn metrics_handle(&self) -> Arc<ChannelMetrics> {
        Arc::clone(&self.metrics)
    }
}

/// Maps the two io error kinds the platforms use for expired read, write
/// and connect deadlines onto the typed [`TransportError::Timeout`].
fn map_io_timeout(e: std::io::Error) -> TransportError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => TransportError::Timeout,
        _ => TransportError::Io(e),
    }
}

impl Channel for TcpChannel {
    fn send_bytes(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        if payload.len() as u64 > MAX_FRAME_BYTES {
            return Err(TransportError::FrameTooLarge {
                announced: payload.len() as u64,
                limit: MAX_FRAME_BYTES,
            });
        }
        let len = payload.len() as u32;
        self.writer
            .write_all(&len.to_le_bytes())
            .and_then(|()| self.writer.write_all(payload))
            .and_then(|()| self.writer.flush())
            .map_err(map_io_timeout)?;
        self.metrics.record_send(payload.len() as u64);
        Ok(())
    }

    fn recv_bytes(&mut self) -> Result<Vec<u8>, TransportError> {
        let mut len_bytes = [0u8; 4];
        if let Err(e) = self.reader.read_exact(&mut len_bytes) {
            return Err(match e.kind() {
                std::io::ErrorKind::UnexpectedEof => TransportError::Disconnected,
                _ => map_io_timeout(e),
            });
        }
        let len = u32::from_le_bytes(len_bytes) as u64;
        if len > MAX_FRAME_BYTES {
            return Err(TransportError::FrameTooLarge {
                announced: len,
                limit: MAX_FRAME_BYTES,
            });
        }
        let mut payload = vec![0u8; len as usize];
        self.reader.read_exact(&mut payload).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                TransportError::Disconnected
            } else {
                map_io_timeout(e)
            }
        })?;
        self.metrics.record_recv(len);
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
    use ppds_bigint::BigUint;

    fn loopback_pair() -> (TcpChannel, TcpChannel) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client_thread = std::thread::spawn(move || TcpChannel::connect(addr).expect("connect"));
        let server = TcpChannel::accept(&listener).expect("accept");
        let client = client_thread.join().expect("join");
        (server, client)
    }

    #[test]
    fn ping_pong_over_loopback() {
        let (mut server, mut client) = loopback_pair();
        client.send(&BigUint::from_u128(1 << 100)).unwrap();
        let got: BigUint = server.recv().unwrap();
        assert_eq!(got, BigUint::from_u128(1 << 100));
        server.send(&99u64).unwrap();
        assert_eq!(client.recv::<u64>().unwrap(), 99);
    }

    #[test]
    fn traffic_matches_memory_transport() {
        // Same payloads must be charged identically on both transports.
        let (mut ms, mut mc) = crate::memory::duplex();
        let (mut ts, mut tc) = loopback_pair();
        let payloads: Vec<Vec<u8>> = vec![vec![1; 10], vec![2; 1000], vec![]];
        for p in &payloads {
            mc.send_bytes(p).unwrap();
            ms.recv_bytes().unwrap();
            tc.send_bytes(p).unwrap();
            ts.recv_bytes().unwrap();
        }
        assert_eq!(mc.metrics().bytes_sent, tc.metrics().bytes_sent);
        assert_eq!(ms.metrics().bytes_received, ts.metrics().bytes_received);
    }

    #[test]
    fn disconnect_detected() {
        let (mut server, client) = loopback_pair();
        drop(client);
        assert!(matches!(
            server.recv_bytes(),
            Err(TransportError::Disconnected)
        ));
    }

    #[test]
    fn empty_payload_roundtrip() {
        let (mut server, mut client) = loopback_pair();
        client.send_bytes(&[]).unwrap();
        assert_eq!(server.recv_bytes().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn large_payload_roundtrip() {
        let (mut server, mut client) = loopback_pair();
        let big = vec![0xCD; 1 << 20];
        client.send_bytes(&big).unwrap();
        assert_eq!(server.recv_bytes().unwrap(), big);
    }

    #[test]
    fn silent_peer_times_out_with_typed_error() {
        let (mut server, client) = loopback_pair();
        server
            .set_timeout(Some(std::time::Duration::from_millis(60)))
            .unwrap();
        let start = std::time::Instant::now();
        assert!(matches!(server.recv_bytes(), Err(TransportError::Timeout)));
        assert!(start.elapsed() < std::time::Duration::from_secs(5));
        // A live peer after clearing the deadline still gets through.
        server.set_timeout(None).unwrap();
        let mut client = client;
        client.send(&7u64).unwrap();
        assert_eq!(server.recv::<u64>().unwrap(), 7);
    }

    #[test]
    fn timeout_mid_frame_is_detected() {
        let (mut server, mut client) = loopback_pair();
        server
            .set_timeout(Some(std::time::Duration::from_millis(60)))
            .unwrap();
        // Send only the length header: the payload read must time out, not
        // hang and not report a clean disconnect.
        client.writer.write_all(&8u32.to_le_bytes()).unwrap();
        client.writer.flush().unwrap();
        assert!(matches!(server.recv_bytes(), Err(TransportError::Timeout)));
    }

    #[test]
    fn a_peer_that_never_reads_times_out_a_send() {
        // 16 MiB is more than the peer's receive window and this side's
        // send buffer hold together, so the write must stall — and the
        // deadline must turn the stall into a typed error.
        let (mut server, client) = loopback_pair();
        server
            .set_timeout(Some(std::time::Duration::from_millis(100)))
            .unwrap();
        // On its own thread, so that a send that never returns fails the
        // test instead of hanging it.
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let sent = server.send_bytes(&vec![0x5A; 16 << 20]);
            let _ = done.send((sent, server.metrics().rounds_sent));
        });
        let (sent, rounds_sent) = outcome
            .recv_timeout(std::time::Duration::from_secs(5))
            .expect("the send returns within 5 s");
        assert!(matches!(sent, Err(TransportError::Timeout)), "{sent:?}");
        assert_eq!(rounds_sent, 0, "no frame was completed");
        drop(client);
    }

    #[test]
    fn connect_timeout_reaches_live_listener() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client_thread = std::thread::spawn(move || {
            TcpChannel::connect_timeout(&addr, std::time::Duration::from_secs(5)).expect("connect")
        });
        let mut server = TcpChannel::accept(&listener).expect("accept");
        let mut client = client_thread.join().expect("join");
        assert_eq!(client.peer_addr().unwrap(), addr);
        client.send(&1u64).unwrap();
        assert_eq!(server.recv::<u64>().unwrap(), 1);
    }

    #[test]
    fn batch_accounting_matches_memory_transport() {
        let (mut ms, mut mc) = crate::memory::duplex();
        let (mut ts, mut tc) = loopback_pair();
        let items: Vec<u64> = (0..32).collect();
        mc.send_batch(&items).unwrap();
        let _: Vec<u64> = ms.recv_batch().unwrap();
        tc.send_batch(&items).unwrap();
        let _: Vec<u64> = ts.recv_batch().unwrap();
        assert_eq!(mc.metrics(), tc.metrics(), "sender batch parity");
        assert_eq!(ms.metrics(), ts.metrics(), "receiver batch parity");
        assert_eq!(tc.metrics().rounds_sent, 1);
        assert_eq!(tc.metrics().messages_sent, 32);
    }
}
