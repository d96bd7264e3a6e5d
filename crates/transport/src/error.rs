//! Transport error type.

use std::fmt;

/// Errors raised while exchanging protocol messages.
#[derive(Debug)]
pub enum TransportError {
    /// The peer hung up (channel closed / connection reset).
    Disconnected,
    /// Underlying socket error.
    Io(std::io::Error),
    /// A received payload could not be decoded as the expected type.
    Decode {
        /// Type name the receiver expected.
        expected: &'static str,
        /// What went wrong while decoding.
        detail: String,
    },
    /// A frame announced a length above the hard cap (corrupt stream or
    /// protocol mismatch).
    FrameTooLarge {
        /// Length the frame header announced.
        announced: u64,
        /// The enforced cap.
        limit: u64,
    },
    /// A blocking read, write or connect exceeded its configured deadline
    /// (see [`crate::tcp::TcpChannel::set_timeout`]). Timeouts are
    /// connection-fatal: a deadline can fire mid-frame, leaving the stream
    /// desynchronized, so the only safe recovery is to drop the channel.
    Timeout,
}

impl TransportError {
    /// Convenience constructor for decode failures.
    pub fn decode(expected: &'static str, detail: impl Into<String>) -> Self {
        TransportError::Decode {
            expected,
            detail: detail.into(),
        }
    }
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Disconnected => write!(f, "peer disconnected"),
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::Decode { expected, detail } => {
                write!(f, "failed to decode {expected}: {detail}")
            }
            TransportError::FrameTooLarge { announced, limit } => {
                write!(f, "frame of {announced} bytes exceeds limit {limit}")
            }
            TransportError::Timeout => write!(f, "peer stalled past the deadline"),
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}
