//! Client-side helpers for talking to a [`crate::Server`]: open a
//! connection, speak the preamble, then run an ordinary
//! [`Participant`] over the accepted channel.

use crate::proto::ServerReply;
use ppdbscan::session::{Hello, Participant, SessionOutcome};
use ppdbscan::CoreError;
use ppds_transport::tcp::TcpChannel;
use ppds_transport::{Channel, TransportError};
use std::net::SocketAddr;
use std::time::Duration;

/// Everything that can go wrong between a client and the server, with the
/// server's typed refusals surfaced as first-class variants so callers can
/// tell "retry later" from "fix your config".
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure (connect refused, timeout, disconnect).
    Transport(TransportError),
    /// The server's queue is full; retry later.
    Busy {
        /// Sessions waiting when the connection was refused.
        depth: u64,
        /// The server's queue cap.
        cap: u64,
    },
    /// The server is shutting down; find another or retry much later.
    Draining,
    /// A protocol-semantic field disagrees with the server's hosting.
    Incompatible {
        /// The offending handshake field.
        field: String,
        /// The server's value.
        ours: u64,
        /// This client's value.
        theirs: u64,
    },
    /// The server cannot serve this request at all.
    Unsupported(String),
    /// The session was admitted but the protocol itself failed.
    Protocol(CoreError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Busy { depth, cap } => {
                write!(f, "server busy: {depth} sessions waiting, cap {cap}")
            }
            ClientError::Draining => write!(f, "server is draining"),
            ClientError::Incompatible {
                field,
                ours,
                theirs,
            } => write!(
                f,
                "incompatible {field}: server has {ours}, client sent {theirs}"
            ),
            ClientError::Unsupported(detail) => write!(f, "unsupported: {detail}"),
            ClientError::Protocol(e) => write!(f, "protocol: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Transport(e) => Some(e),
            ClientError::Protocol(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TransportError> for ClientError {
    fn from(e: TransportError) -> Self {
        ClientError::Transport(e)
    }
}

impl From<CoreError> for ClientError {
    fn from(e: CoreError) -> Self {
        ClientError::Protocol(e)
    }
}

/// An admitted connection: the preamble succeeded, the server granted
/// `session_id`, and the protocol handshake runs next on `chan`.
pub struct ServerSession {
    chan: TcpChannel,
    session_id: u64,
}

impl ServerSession {
    /// The id the server granted (equal to the proposal when it was free).
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Runs the participant's half of the session over the admitted
    /// channel. The participant must be the same one (config- and
    /// data-wise) the preamble described.
    pub fn run(mut self, participant: Participant) -> Result<SessionOutcome, ClientError> {
        Ok(participant.run(&mut self.chan)?)
    }

    /// Surrenders the raw channel (tests that drive the wire directly).
    pub fn into_channel(self) -> TcpChannel {
        self.chan
    }
}

/// Connects to `addr` and speaks the preamble for `participant`,
/// proposing `session_id` (0 = let the server assign one). On `Accept`
/// the returned [`ServerSession`] is ready for [`ServerSession::run`];
/// every refusal maps to its typed [`ClientError`] variant.
pub fn open_session(
    addr: &SocketAddr,
    participant: &Participant,
    session_id: u64,
    timeout: Duration,
) -> Result<ServerSession, ClientError> {
    let data = participant.party_data().ok_or_else(|| {
        ClientError::Protocol(CoreError::Config(
            "participant needs data before opening a server session".into(),
        ))
    })?;
    let (n, dim) = data.shape();
    let hello =
        Hello::for_session(participant.config(), data.mode(), n, dim).with_session_id(session_id);

    let mut chan = TcpChannel::connect_timeout(addr, timeout)?;
    chan.set_timeout(Some(timeout))?;
    chan.send(&hello)?;
    let reply: ServerReply = chan.recv()?;
    match reply {
        ServerReply::Accept { session_id } => {
            chan.set_timeout(None)?;
            Ok(ServerSession { chan, session_id })
        }
        ServerReply::Busy { depth, cap } => Err(ClientError::Busy { depth, cap }),
        ServerReply::Draining => Err(ClientError::Draining),
        ServerReply::Incompatible {
            field,
            ours,
            theirs,
        } => Err(ClientError::Incompatible {
            field,
            ours,
            theirs,
        }),
        ServerReply::Unsupported { detail } => Err(ClientError::Unsupported(detail)),
    }
}

/// [`open_session`] + [`ServerSession::run`] in one call, returning the
/// granted id alongside the outcome.
pub fn run_session(
    addr: &SocketAddr,
    participant: Participant,
    session_id: u64,
    timeout: Duration,
) -> Result<(u64, SessionOutcome), ClientError> {
    let session = open_session(addr, &participant, session_id, timeout)?;
    let id = session.session_id();
    let outcome = session.run(participant)?;
    Ok((id, outcome))
}
