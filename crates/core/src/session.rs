//! The typed participant session API — one entry point for every protocol
//! mode.
//!
//! Historically each protocol family shipped its own free-function driver
//! pair (`run_horizontal_pair`, `vertical_party`, …) with long positional
//! argument lists and a magic-number `Vec<u64>` handshake. This module
//! replaces that surface with three pieces:
//!
//! 1. **[`Participant`]** — a builder describing one party's side of a
//!    session: the agreed [`ProtocolConfig`], this party's [`Party`] role,
//!    its private [`PartyData`] view, optionally a pre-generated
//!    [`Keypair`], and a deterministic randomness source. One
//!    [`Participant::run`] call executes any two-party mode over any
//!    [`Channel`] (in-memory or TCP alike); [`Participant::run_mesh`] runs
//!    the K-party generalization over a full mesh of channels.
//! 2. **[`Hello`]** — the versioned, self-describing handshake frame. Both
//!    sides exchange one `Hello` after the key exchange; every public
//!    protocol parameter is carried as a tagged field and cross-checked,
//!    and any disagreement is reported as a typed
//!    [`CoreError::HandshakeMismatch`] naming the offending field — on
//!    *both* sides, before any protocol message flows.
//! 3. **`ModeDriver`** (crate-internal) — the shared dispatch every mode
//!    routes through, so validation, handshake, and output assembly live in
//!    one place instead of five driver modules.
//!
//! ```
//! use ppdbscan::session::{Participant, PartyData};
//! use ppdbscan::ProtocolConfig;
//! use ppds_dbscan::{DbscanParams, Point};
//! use ppds_smc::Party;
//!
//! let cfg = ProtocolConfig::new(DbscanParams { eps_sq: 4, min_pts: 3 }, 10);
//! let alice = Participant::new(cfg)
//!     .role(Party::Alice)
//!     .data(PartyData::Horizontal(vec![
//!         Point::new(vec![0, 0]),
//!         Point::new(vec![1, 1]),
//!     ]))
//!     .seed(1);
//! let bob = Participant::new(cfg)
//!     .role(Party::Bob)
//!     .data(PartyData::Horizontal(vec![
//!         Point::new(vec![0, 1]),
//!         Point::new(vec![9, 9]),
//!     ]))
//!     .seed(2);
//! let (a, b) = ppdbscan::session::run_participants(alice, bob).unwrap();
//! assert_eq!(a.meta.wire_version, ppdbscan::session::WIRE_VERSION);
//! println!("Alice sees {} clusters", a.output.clustering.num_clusters);
//! # let _ = b;
//! ```

use crate::config::{ProtocolConfig, YaoLedger};
use crate::driver::{run_pair, PartyOutput};
use crate::error::CoreError;
use crate::horizontal::HorizontalDriver;
use ppds_dbscan::{Clustering, Point, Pruning};
use ppds_observe::trace::{self, Span};
use ppds_observe::{SessionTrace, SpanRecorder, TraceSink};
use ppds_paillier::{Keypair, PublicKey};
use ppds_smc::compare::Comparator;
use ppds_smc::kth::SelectionMethod;
use ppds_smc::{setup, BackendKind, DealerTape, LeakageLog, Party, ProtocolContext, SharingLedger};
use ppds_transport::wire::{Reader, WireDecode, WireEncode};
use ppds_transport::{duplex, Channel, MemoryChannel, MetricsSnapshot, TransportError};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Version of the session handshake wire format. Bumped whenever the
/// [`Hello`] frame layout or the meaning of a negotiated field changes;
/// participants with different versions refuse to run (typed
/// [`CoreError::HandshakeMismatch`] on `wire_version`).
///
/// Version history: `1` was the unversioned `Vec<u64>` metadata frame of
/// the original drivers; `2` is the tagged-field `Hello` frame; `3` adds
/// the required `packing` field (plaintext-slot packing negotiation); `4`
/// adds the required `backend` field (Paillier vs additive-sharing SMC
/// substrate) and, when sharing is negotiated, a dealer-seed contribution
/// exchange immediately after the `Hello` frames; `5` adds the required
/// `pruning` field (candidate-generation policy: exhaustive all-pairs vs
/// grid-derived candidate sets); `6` keeps the `Hello` layout but changes
/// the execute-phase transcript of the vertical and arbitrary modes (one
/// exchange per chunk of unordered candidate pairs instead of one per
/// region query), so a v5 peer is refused here rather than desyncing
/// mid-session; `7` does the same to the horizontal, enhanced and
/// multiparty modes (every own point's core-point test resolved up front in
/// index order — HDP pairs in chunks, grid cells and candidate counts a
/// frame per 1,024 queries — with no query/done control tags); `8` drops the
/// `u32` item count from batch frames (a frame is its items back to back,
/// so a message is a batch of one — a v7 peer would read the first item's
/// bytes as a count); `9` changes the enhanced mode's execute-phase
/// transcript alone (every `(engage, k)` flag ahead, 1,024 to a frame, then
/// one exchange per step of a chunk of engaged tests instead of one
/// conversation per test — the same messages, regrouped), so a v8 peer is
/// refused here rather than reading a flags frame as a dot-product reply;
/// `10` changes the order of the horizontal and multiparty resolve frames
/// across chunks alone (a window of chunks in flight, the responder posting
/// chunk `i + W`'s fold request as soon as chunk `i` settles — the same
/// frames), so a v9 peer is refused here rather than reading a fold request
/// where it expects an open; `11` is skipped, because the legacy `Vec<u64>`
/// metadata frame carries eleven values and its length prefix reads as
/// version 11, so a build at 11 would take that frame for its own; `12`
/// sizes that window by the both-blocked bound instead of each backlog (up
/// to four chunks in flight where v10 kept two — the same frames), so a v10
/// peer is refused here rather than reading a fold request where it expects
/// an open; `13` makes the sharing backend's multiplication fold
/// query-shaped (flat runs of ring elements, the querier's masked point once
/// a query rather than once a pair), which changes those frames' lengths and
/// the window both sides derive from them, so a v12 peer is refused here
/// rather than reading a fold reply of the wrong length; `14` runs
/// `Comparator::Dgk` over the DGK cryptosystem — the DGK public key rides
/// the key-exchange frame after the Paillier modulus when a Paillier
/// session runs DGK, and comparison ciphertexts live mod the DGK `n` with
/// no packed reply — so a v13 peer is refused here rather than reading
/// `ℓ` DGK cells where it expects packed Paillier words; `15` runs the
/// two-party horizontal session as the mesh of two, so its exchanges draw
/// under `"mesh"`·`at(querier)`·`at(responder)` where they drew under one
/// label per direction — the same frames, but the sharing backend keys its
/// dealer tape by that path, so a v14 peer would derive uncorrelated
/// triples and open garbage without an error; it is refused here instead.
/// The arbitrary mode's comparisons moved from a `"cmp"` label to the
/// chunk context within v14 and carried the same mixed-build hazard
/// without a bump of their own; v15 covers that change too. `16` answers a
/// call of dot products with one flat run over every row of the call —
/// `⌈Σ rows / capacity⌉` packed words, or `Σ rows` ciphertexts — where v15
/// sent one word vector a query, so a v15 peer is refused here rather than
/// reading a run of words as one query's reply. `17` sizes an enhanced
/// DGK comparison by the gap its operands are promised (`m + 3` bits out
/// and `m + 1` cells back, where v16 sent `ℓ` each way), so a v16 peer is
/// refused here rather than reading a bit vector of the other length as a
/// hostile one. `18` makes establish one flight: each side sends its key
/// frame, its `Hello` and (sharing backend) its dealer-seed contribution
/// before it reads anything, where a v17 Bob read Alice's key frame before
/// sending his own — the same frames, in another order, so a v17 peer is
/// refused here by name rather than left waiting on a frame that a v18
/// side has already sent. (No legacy frame reads as 13 to 18: the
/// `Vec<u64>` metadata frame always held eleven values.)
pub const WIRE_VERSION: u32 = 18;

/// Protocol family tag, negotiated during the handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Basic horizontal protocol (Algorithms 3 & 4).
    Horizontal,
    /// Vertical protocol (Algorithms 5 & 6).
    Vertical,
    /// Arbitrary-partition protocol (§4.4).
    Arbitrary,
    /// Enhanced horizontal protocol (Algorithms 7 & 8).
    Enhanced,
    /// K-party horizontal generalization (full pairwise mesh).
    Multiparty,
    /// The insecure Kumar et al. \[14\] baseline (for the Figure 1 attack
    /// demos only — not reachable through [`Participant`]).
    KumarBaseline,
}

impl Mode {
    /// The mode for a handshake tag, if the tag is known.
    pub(crate) fn from_tag(tag: u64) -> Option<Mode> {
        Some(match tag {
            1 => Mode::Horizontal,
            2 => Mode::Vertical,
            3 => Mode::Arbitrary,
            4 => Mode::Enhanced,
            5 => Mode::Multiparty,
            6 => Mode::KumarBaseline,
            _ => return None,
        })
    }

    /// Stable numeric tag carried in the handshake.
    pub(crate) fn tag(self) -> u64 {
        match self {
            Mode::Horizontal => 1,
            Mode::Vertical => 2,
            Mode::Arbitrary => 3,
            Mode::Enhanced => 4,
            Mode::Multiparty => 5,
            Mode::KumarBaseline => 6,
        }
    }

    /// Short protocol-family name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            Mode::Horizontal => "horizontal",
            Mode::Vertical => "vertical",
            Mode::Arbitrary => "arbitrary",
            Mode::Enhanced => "enhanced",
            Mode::Multiparty => "multiparty",
            Mode::KumarBaseline => "kumar-baseline",
        }
    }
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// Handshake field tags. Public protocol metadata only — every value here is
// something both parties must already know or agree on in the paper's model.
const F_MODE: u8 = 1;
const F_RECORDS: u8 = 2;
const F_DIM: u8 = 3;
const F_COORD_BOUND: u8 = 4;
const F_EPS_SQ: u8 = 5;
const F_MIN_PTS: u8 = 6;
const F_KEY_BITS: u8 = 7;
const F_COMPARATOR: u8 = 8;
const F_SELECTION: u8 = 9;
const F_MASK_BITS: u8 = 10;
const F_BATCHING: u8 = 11;
const F_PACKING: u8 = 12;
/// Optional session-id field (server deployments): a client *proposes* an
/// id in its preamble `Hello` (0 or absent = "assign me one") and the
/// server's accept reply carries the id actually granted. Not in
/// [`AGREED_FIELDS`] — the in-session handshake ignores it, so frames with
/// and without it interoperate within one wire version.
const F_SESSION_ID: u8 = 13;
const F_BACKEND: u8 = 14;
const F_PRUNING: u8 = 15;

/// Fields that must be byte-equal between the two halves (record count and
/// dimension are informational / mode-dependent and checked separately).
const AGREED_FIELDS: [(u8, &str); 12] = [
    (F_MODE, "mode"),
    (F_COORD_BOUND, "coord_bound"),
    (F_EPS_SQ, "eps_sq"),
    (F_MIN_PTS, "min_pts"),
    (F_KEY_BITS, "key_bits"),
    (F_COMPARATOR, "comparator"),
    (F_SELECTION, "selection"),
    (F_MASK_BITS, "mask_bits"),
    (F_BATCHING, "batching"),
    (F_PACKING, "packing"),
    (F_BACKEND, "backend"),
    (F_PRUNING, "pruning"),
];

fn comparator_tag(c: Comparator) -> u64 {
    match c {
        Comparator::Yao => 0,
        Comparator::Ideal => 1,
        Comparator::Dgk => 2,
    }
}

fn selection_tag(s: SelectionMethod) -> u64 {
    match s {
        SelectionMethod::RepeatedMin => 0,
        SelectionMethod::QuickSelect => 1,
    }
}

/// The versioned, self-describing handshake frame.
///
/// On the wire a `Hello` is its version (`u32`) followed by a tagged list
/// of `(field id: u8, value: u64)` pairs. The tagged encoding makes the
/// frame self-describing: fields can be added without shifting positions,
/// unknown fields from newer peers are ignored, and a frame from a
/// *different* wire version (including the legacy `Vec<u64>` metadata
/// frame, whose length prefix lands where the version now lives) still
/// decodes far enough to be rejected with a typed
/// [`CoreError::HandshakeMismatch`] on `wire_version` instead of hanging or
/// surfacing a generic decode error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The sender's [`WIRE_VERSION`].
    pub wire_version: u32,
    fields: Vec<(u8, u64)>,
}

impl Hello {
    /// Builds the handshake frame one participant sends: every public
    /// protocol parameter of `cfg` plus the session-specific mode, record
    /// count, and dimension.
    pub fn for_session(cfg: &ProtocolConfig, mode: Mode, n: usize, dim: usize) -> Self {
        Hello {
            wire_version: WIRE_VERSION,
            fields: vec![
                (F_MODE, mode.tag()),
                (F_RECORDS, n as u64),
                (F_DIM, dim as u64),
                (F_COORD_BOUND, cfg.coord_bound as u64),
                (F_EPS_SQ, cfg.params.eps_sq),
                (F_MIN_PTS, cfg.params.min_pts as u64),
                (F_KEY_BITS, cfg.key_bits as u64),
                (F_COMPARATOR, comparator_tag(cfg.comparator)),
                (F_SELECTION, selection_tag(cfg.selection)),
                (F_MASK_BITS, cfg.mask_bits as u64),
                (F_BATCHING, cfg.batching as u64),
                (F_PACKING, cfg.packing as u64),
                (F_BACKEND, u64::from(cfg.backend.tag())),
                (F_PRUNING, cfg.pruning.tag()),
            ],
        }
    }

    /// Returns a copy advertising `version` instead of [`WIRE_VERSION`].
    /// Interop/testing hook: lets a test (or a future bridge) forge the
    /// frame an older or newer build would send.
    pub fn with_wire_version(mut self, version: u32) -> Self {
        self.wire_version = version;
        self
    }

    /// Returns a copy carrying a session-id field: the id this side
    /// proposes (client preamble) or grants (server). `0` means "assign me
    /// one". The in-session handshake ignores the field entirely — it
    /// exists for the `ppds-server` connection preamble, where one `Hello`
    /// classifies the connection before the protocol handshake proper.
    pub fn with_session_id(mut self, id: u64) -> Self {
        self.fields.retain(|(fid, _)| *fid != F_SESSION_ID);
        self.fields.push((F_SESSION_ID, id));
        self
    }

    /// The value of field `id`, if the sender included it.
    fn field(&self, id: u8) -> Option<u64> {
        self.fields
            .iter()
            .find(|(fid, _)| *fid == id)
            .map(|(_, v)| *v)
    }

    /// The session id the sender proposed or granted, if any (see
    /// [`Hello::with_session_id`]).
    pub fn session_id(&self) -> Option<u64> {
        self.field(F_SESSION_ID)
    }

    /// The protocol family the sender advertised, if present and known.
    pub fn mode(&self) -> Option<Mode> {
        self.field(F_MODE).and_then(Mode::from_tag)
    }

    /// The record count the sender advertised.
    pub fn records(&self) -> Option<u64> {
        self.field(F_RECORDS)
    }

    /// The attribute count the sender advertised (0 = no points).
    pub fn dim(&self) -> Option<u64> {
        self.field(F_DIM)
    }

    /// Whether the sender wants round batching, if advertised.
    pub fn batching(&self) -> Option<bool> {
        self.field(F_BATCHING).map(|v| v != 0)
    }

    /// Whether the sender wants plaintext-slot packing, if advertised.
    pub fn packing(&self) -> Option<bool> {
        self.field(F_PACKING).map(|v| v != 0)
    }

    /// The SMC substrate the sender advertised, if present and known.
    pub fn backend(&self) -> Option<BackendKind> {
        self.field(F_BACKEND)
            .and_then(|v| u8::try_from(v).ok())
            .and_then(BackendKind::from_tag)
    }

    /// The candidate-generation policy the sender advertised, if present
    /// and representable.
    pub fn pruning(&self) -> Option<Pruning> {
        self.field(F_PRUNING).and_then(Pruning::from_tag)
    }

    /// A stable fingerprint of the agreement-relevant preamble content:
    /// the wire version plus every tagged field *except* the
    /// per-connection session id, FNV-1a-hashed in field-id order. Two
    /// preambles with the same fingerprint would negotiate identically, so
    /// a server front-end can cache the outcome of
    /// [`Hello::check_against`] (plus its knob adoption) per fingerprint
    /// and skip re-negotiation for reconnecting clients.
    pub fn negotiation_fingerprint(&self) -> u64 {
        fn fnv(h: u64, byte: u8) -> u64 {
            (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3)
        }
        let mut pairs: Vec<(u8, u64)> = self
            .fields
            .iter()
            .copied()
            .filter(|(id, _)| *id != F_SESSION_ID)
            .collect();
        pairs.sort_unstable();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in self.wire_version.to_le_bytes() {
            h = fnv(h, byte);
        }
        for (id, value) in pairs {
            h = fnv(h, id);
            for byte in value.to_le_bytes() {
                h = fnv(h, byte);
            }
        }
        h
    }

    /// Cross-checks a peer's `Hello` against ours: every agreed field must
    /// be byte-equal, and a version or field disagreement is reported as a
    /// typed [`CoreError::HandshakeMismatch`] naming the field. The
    /// dimensions must match too, except in the vertical mode, where the
    /// parties own different attribute slices; dimension 0 means "this side
    /// has no points" and matches anything.
    ///
    /// This is the check both halves of [`Participant::run`] apply after
    /// exchanging frames; a server front-end applies the same check to the
    /// connection preamble (with its negotiable knobs already adopted into
    /// `self`) so incompatibilities are rejected before a worker is tied up.
    pub fn check_against(&self, theirs: &Hello) -> Result<(), CoreError> {
        if self.wire_version != theirs.wire_version {
            return Err(CoreError::HandshakeMismatch {
                field: "wire_version",
                ours: u64::from(self.wire_version),
                theirs: u64::from(theirs.wire_version),
            });
        }
        for (id, name) in AGREED_FIELDS {
            let ours = self.field(id).expect("our hello carries every field");
            let Some(peer) = theirs.field(id) else {
                return Err(CoreError::mismatch(format!(
                    "peer handshake omits the {name} field"
                )));
            };
            if ours != peer {
                return Err(CoreError::HandshakeMismatch {
                    field: name,
                    ours,
                    theirs: peer,
                });
            }
        }
        // Record count and dimension are informational (cross-checked per
        // mode after the handshake), but a same-version frame must still
        // carry them: a missing field silently defaulting to 0 would let
        // the protocol start desynchronized and die mid-run with a generic
        // transport error instead of failing here.
        for (id, name) in [(F_RECORDS, "record_count"), (F_DIM, "dimension")] {
            if theirs.field(id).is_none() {
                return Err(CoreError::mismatch(format!(
                    "peer handshake omits the {name} field"
                )));
            }
        }
        // The mode is an agreed field, so both sides take the same branch.
        if self.mode() != Some(Mode::Vertical) {
            let (ours, peer) = (
                self.field(F_DIM).expect("our hello carries dim"),
                theirs.field(F_DIM).expect("presence checked above"),
            );
            if ours != 0 && peer != 0 && ours != peer {
                return Err(CoreError::HandshakeMismatch {
                    field: "dimension",
                    ours,
                    theirs: peer,
                });
            }
        }
        Ok(())
    }
}

impl WireEncode for Hello {
    fn encode(&self, out: &mut Vec<u8>) {
        self.wire_version.encode(out);
        (self.fields.len() as u32).encode(out);
        for (id, value) in &self.fields {
            id.encode(out);
            value.encode(out);
        }
    }
}

impl WireDecode for Hello {
    /// Lenient by design: the version is read first, and the field list is
    /// parsed best-effort with trailing bytes ignored. A frame from any
    /// other wire version therefore still yields a `Hello` whose version
    /// the handshake can reject by name, rather than a decode error that
    /// hides the real incompatibility.
    fn decode(reader: &mut Reader<'_>) -> Result<Self, TransportError> {
        let wire_version = u32::decode(reader)?;
        let mut fields = Vec::new();
        if let Ok(count) = u32::decode(reader) {
            for _ in 0..count {
                match (u8::decode(reader), u64::decode(reader)) {
                    (Ok(id), Ok(value)) => fields.push((id, value)),
                    _ => break,
                }
            }
        }
        // Consume whatever a foreign version appended so `decode_exact`
        // (and with it `Channel::recv`) does not reject the frame outright.
        let remaining = reader.remaining();
        let _ = reader.take(remaining);
        Ok(Hello {
            wire_version,
            fields,
        })
    }
}

/// Everything one two-party handshake negotiates, shared by all drivers.
pub(crate) struct Session {
    pub my_keypair: Keypair,
    pub peer_pk: PublicKey,
    /// Peer's record count (horizontal) or record count check (vertical).
    pub peer_n: usize,
    /// Peer's attribute count (differs from ours only for vertical data).
    pub peer_dim: usize,
    /// Shared dealer tape for correlated randomness — `Some` exactly when
    /// the sharing backend was negotiated (seeded by XOR of one keyed
    /// contribution from each side, so neither party picks it alone).
    pub tape: Option<DealerTape>,
}

/// What one mode advertises in (and requires of) the handshake.
pub(crate) struct HandshakeProfile {
    pub mode: Mode,
    pub n: usize,
    pub dim: usize,
}

/// Exchanges public keys and `Hello` frames with one peer, cross-checking
/// all public protocol metadata: [`send_flight`], then [`read_flight`].
pub(crate) fn establish<C: Channel>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    my_keypair: Keypair,
    profile: &HandshakeProfile,
    ctx: &ProtocolContext,
) -> Result<Session, CoreError> {
    let mine = Hello::for_session(cfg, profile.mode, profile.n, profile.dim);
    let sent = send_flight(chan, cfg, &my_keypair, &mine, ctx);
    let session = read_flight(chan, cfg, my_keypair, &mine, ctx)?;
    sent.map(|()| session)
}

/// Whether this side's session runs DGK comparisons, so its key frame
/// carries its DGK key.
fn sends_dgk(cfg: &ProtocolConfig) -> bool {
    cfg.backend == BackendKind::Paillier && cfg.comparator == Comparator::Dgk
}

/// This side's half of the one establish flight, sent before anything is
/// read: the key frame (with the DGK key when the session runs DGK
/// comparisons), the `Hello`, and, on the sharing backend, this side's
/// dealer-seed contribution. Both sides send before either reads, so the
/// flight costs one link delay, and a mismatch is reported symmetrically
/// (each half names the same offending field). A peer that has already
/// refused our flight may have hung up before its last frame went out, so
/// callers read the peer's flight before they report a failed send: the
/// peer's frames name the disagreement the hang-up only follows from.
pub(crate) fn send_flight<C: Channel>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    my_keypair: &Keypair,
    mine: &Hello,
    ctx: &ProtocolContext,
) -> Result<(), CoreError> {
    let span = trace::span("flight", || chan.metrics());
    setup::send_public_key(chan, my_keypair, sends_dgk(cfg))?;
    chan.send(mine)?;
    // The sharing backend needs one shared dealer seed; both sides
    // contribute a keyed draw and XOR, so the tape is agreed without either
    // party choosing it unilaterally.
    if cfg.backend == BackendKind::Sharing {
        chan.send(&DealerTape::contribution(ctx))?;
    }
    span.end(|| chan.metrics());
    Ok(())
}

/// Reads and checks the peer's half of the flight, in the order the checks
/// run: the key frame (a modulus or DGK key the peer could not have
/// generated is refused before anything is built under it), the `Hello`
/// against `mine`, then the DGK key size, and last the dealer-seed
/// contribution. A check that fails ends the session before a protocol
/// message is read.
pub(crate) fn read_flight<C: Channel>(
    chan: &mut C,
    cfg: &ProtocolConfig,
    my_keypair: Keypair,
    mine: &Hello,
    ctx: &ProtocolContext,
) -> Result<Session, CoreError> {
    let span = trace::span("hello", || chan.metrics());
    let peer_pk = setup::recv_public_key(chan)?;
    let theirs: Hello = chan.recv()?;
    mine.check_against(&theirs)?;
    // Agreeing on DGK means the peer sent its DGK key with its modulus, at
    // the agreed key size.
    if sends_dgk(cfg) {
        match peer_pk.dgk().map(|key| key.bits()) {
            None => return Err(CoreError::mismatch("peer key frame carries no DGK key")),
            Some(bits) if bits != cfg.key_bits => {
                return Err(CoreError::HandshakeMismatch {
                    field: "dgk_key_bits",
                    ours: cfg.key_bits as u64,
                    theirs: bits as u64,
                })
            }
            Some(_) => {}
        }
    }
    let tape = if cfg.backend == BackendKind::Sharing {
        let their_contribution: u64 = chan.recv()?;
        Some(DealerTape::from_contributions(
            DealerTape::contribution(ctx),
            their_contribution,
        ))
    } else {
        None
    };
    span.end(|| chan.metrics());
    Ok(Session {
        my_keypair,
        peer_pk,
        peer_n: theirs
            .field(F_RECORDS)
            .expect("check_against requires the field") as usize,
        peer_dim: theirs
            .field(F_DIM)
            .expect("check_against requires the field") as usize,
        tape,
    })
}

/// Running record of one party's leakage, modeled Yao cost, and
/// sharing-backend substitution accounting.
pub(crate) struct SessionLog {
    pub leakage: LeakageLog,
    pub ledger: YaoLedger,
    pub sharing: SharingLedger,
}

impl SessionLog {
    pub(crate) fn new() -> Self {
        SessionLog {
            leakage: LeakageLog::new(),
            ledger: YaoLedger::default(),
            sharing: SharingLedger::default(),
        }
    }
}

/// Per-mode execution context of a pairwise driver: the config, this
/// party's role towards its one peer and what their handshake negotiated.
pub(crate) struct ModeContext<'a> {
    pub cfg: &'a ProtocolConfig,
    pub role: Party,
    pub session: &'a Session,
}

/// One of a node's pairwise sessions: the peer's id, this node's role
/// towards it (the lower id plays Alice), the channel and what the
/// handshake on it negotiated.
pub(crate) struct Link<'a, C> {
    pub id: usize,
    pub role: Party,
    pub chan: &'a mut C,
    pub session: Session,
}

/// What a [`ModeDriver`] body runs over: the agreed config, this node's id
/// `me` and one link per peer, in id order — the ids are exactly
/// `{0..K} \ {me}`. A two-party session is the node of `K = 2` whose id is
/// its role index (Alice 0, Bob 1).
pub(crate) struct Node<'a, C> {
    pub cfg: &'a ProtocolConfig,
    pub me: usize,
    pub links: Vec<Link<'a, C>>,
}

impl<C: Channel> Node<'_, C> {
    /// The summed traffic of every link. A node-level span edge carries
    /// it: componentwise sums of monotone counters stay monotone.
    fn traffic(&self) -> MetricsSnapshot {
        self.links.iter().map(|link| link.chan.metrics()).sum()
    }

    /// The one peer of a pairwise mode: its channel and session context.
    pub(crate) fn pair(&mut self) -> Result<(&mut C, ModeContext<'_>), CoreError> {
        let [link] = &mut self.links[..] else {
            return Err(CoreError::config("this mode runs between two parties"));
        };
        let mctx = ModeContext {
            cfg: self.cfg,
            role: link.role,
            session: &link.session,
        };
        Ok((&mut *link.chan, mctx))
    }
}

/// The shared dispatch every protocol family implements: local validation,
/// handshake profile, post-handshake cross-checks, and the protocol body.
/// `run_node` sequences these so the config/batching plumbing lives in
/// exactly one place.
pub(crate) trait ModeDriver {
    /// Local-only validation before anything crosses the wire.
    fn validate(&self, cfg: &ProtocolConfig) -> Result<(), CoreError>;

    /// This driver's handshake advertisement.
    fn profile(&self) -> HandshakeProfile;

    /// Cross-checks after each peer's handshake (e.g. equal record counts).
    fn check_session(&self, cfg: &ProtocolConfig, session: &Session) -> Result<(), CoreError>;

    /// The protocol body: returns this party's clustering. `ctx` is the
    /// session's root [`ProtocolContext`]; the driver narrows it per
    /// protocol step and query instance, so every draw site owns a keyed
    /// substream independent of execution order.
    fn execute<C: Channel>(
        &self,
        node: &mut Node<'_, C>,
        ctx: &ProtocolContext,
        log: &mut SessionLog,
    ) -> Result<Clustering, CoreError>;
}

fn traffic<C: Channel>(peers: &[(usize, &mut C)]) -> MetricsSnapshot {
    peers.iter().map(|(_, chan)| chan.metrics()).sum()
}

/// Runs one node of a session end to end over its channels to the other
/// parties, `peers` tagged with their ids: refuses a peer-id set other
/// than `{0..K} \ {me}`, validates, generates a keypair from the context's
/// `"keygen"` substream unless one is supplied, establishes and
/// cross-checks one pairwise session per peer in id order (the one keypair
/// serves them all), executes, and assembles the outcome. A traced
/// session's four top-level spans tile the run: `keygen` opens before
/// anything else happens here, and the `assemble` span comes back open, so
/// the caller that owns the session's inputs and its recorder releases
/// both before the span's end edge is stamped.
pub(crate) fn run_node<C: Channel, D: ModeDriver>(
    peers: &mut [(usize, &mut C)],
    me: usize,
    cfg: &ProtocolConfig,
    driver: &D,
    keypair: Option<Keypair>,
    ctx: &ProtocolContext,
) -> Result<(SessionOutcome, Span), CoreError> {
    let keygen_span = trace::span("keygen", || traffic(peers));
    peers.sort_unstable_by_key(|&(id, _)| id);
    let ids = || peers.iter().map(|&(id, _)| id);
    if peers.is_empty() || !ids().eq((0..=peers.len()).filter(|&id| id != me)) {
        let ids: Vec<usize> = ids().collect();
        return Err(CoreError::config(format!(
            "party {me} of {} needs one channel to each other party, got {ids:?}",
            peers.len() + 1
        )));
    }
    driver.validate(cfg)?;
    let keypair = match keypair {
        Some(kp) => kp,
        None => Keypair::generate(cfg.key_bits, &mut ctx.narrow("keygen").rng()),
    };
    keygen_span.end(|| traffic(peers));
    let profile = driver.profile();
    let establish_span = trace::span("establish", || traffic(peers));
    // One flight: this node sends to every peer before it reads from any.
    let mine = Hello::for_session(cfg, profile.mode, profile.n, profile.dim);
    let sent: Vec<_> = peers
        .iter_mut()
        .map(|(_, chan)| send_flight(&mut **chan, cfg, &keypair, &mine, ctx))
        .collect();
    let mut links = Vec::with_capacity(peers.len());
    let keypairs = std::iter::repeat_n(keypair, peers.len());
    for (((id, chan), keypair), sent) in peers.iter_mut().zip(keypairs).zip(sent) {
        let (id, chan) = (*id, &mut **chan);
        let role = if me < id { Party::Alice } else { Party::Bob };
        let session = read_flight(chan, cfg, keypair, &mine, ctx)?;
        sent?;
        driver.check_session(cfg, &session)?;
        links.push(Link {
            id,
            role,
            chan,
            session,
        });
    }
    let mut node = Node { cfg, me, links };
    establish_span.end(|| node.traffic());

    let mut log = SessionLog::new();
    let execute_span = trace::span("execute", || node.traffic());
    let clustering = driver.execute(&mut node, ctx, &mut log)?;
    execute_span.end(|| node.traffic());
    let assemble_span = trace::span("assemble", || node.traffic());
    let peers = node.links.iter().map(|link| PeerInfo {
        id: link.id,
        n: link.session.peer_n,
        dim: link.session.peer_dim,
    });
    let outcome = SessionOutcome {
        output: PartyOutput {
            clustering,
            leakage: log.leakage,
            traffic: node.traffic(),
            yao: log.ledger,
            sharing: log.sharing,
        },
        trace: None,
        meta: SessionMeta {
            wire_version: WIRE_VERSION,
            mode: profile.mode,
            batching: cfg.batching,
            packing: cfg.packing,
            backend: cfg.backend,
            pruning: cfg.pruning,
            peers: peers.collect(),
        },
    };
    Ok((outcome, assemble_span))
}

/// One party's private view of the session data — the mode selector of the
/// [`Participant`] API. The variant picks the protocol family; the payload
/// is this party's private input to it.
#[derive(Debug, Clone)]
pub enum PartyData {
    /// Complete records, basic horizontal protocol (Algorithms 3 & 4).
    Horizontal(Vec<Point>),
    /// Complete records, enhanced protocol (Algorithms 7 & 8).
    Enhanced(Vec<Point>),
    /// This party's attribute slice of every record (Algorithms 5 & 6).
    Vertical(Vec<Point>),
    /// This party's cell view: `Some` exactly at owned attributes (§4.4).
    Arbitrary(Vec<Vec<Option<i64>>>),
    /// Complete records for the K-party mesh (run via
    /// [`Participant::run_mesh`]).
    Multiparty(Vec<Point>),
}

impl PartyData {
    /// The protocol family this data selects.
    pub fn mode(&self) -> Mode {
        match self {
            PartyData::Horizontal(_) => Mode::Horizontal,
            PartyData::Enhanced(_) => Mode::Enhanced,
            PartyData::Vertical(_) => Mode::Vertical,
            PartyData::Arbitrary(_) => Mode::Arbitrary,
            PartyData::Multiparty(_) => Mode::Multiparty,
        }
    }

    /// `(record count, dimension)` as this data view advertises them in the
    /// handshake (dimension 0 = no points). A server preamble reuses this
    /// to describe the client's side before the session handshake proper.
    pub fn shape(&self) -> (usize, usize) {
        match self {
            PartyData::Horizontal(points)
            | PartyData::Enhanced(points)
            | PartyData::Multiparty(points) => (points.len(), points.first().map_or(0, Point::dim)),
            PartyData::Vertical(attrs) => (attrs.len(), attrs.first().map_or(1, Point::dim)),
            PartyData::Arbitrary(values) => {
                (values.len(), values.first().map_or(0, |row| row.len()))
            }
        }
    }
}

/// Metadata about one peer session negotiated during the handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerInfo {
    /// The peer's party id (role index for two-party sessions: Alice = 0,
    /// Bob = 1; global party id in a mesh).
    pub id: usize,
    /// The peer's advertised record count.
    pub n: usize,
    /// The peer's advertised attribute count (0 = no points).
    pub dim: usize,
}

/// Everything negotiated about a finished session beyond the protocol
/// output itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionMeta {
    /// The handshake wire version both sides agreed on.
    pub wire_version: u32,
    /// The negotiated protocol family.
    pub mode: Mode,
    /// Whether round batching was active (both sides must agree).
    pub batching: bool,
    /// Whether plaintext-slot packing was active (both sides must agree).
    pub packing: bool,
    /// The negotiated SMC substrate (both sides must agree).
    pub backend: BackendKind,
    /// The negotiated candidate-generation policy (both sides must agree).
    pub pruning: Pruning,
    /// One entry per peer session (one for two-party modes, `K − 1` for a
    /// mesh), in peer-id order.
    pub peers: Vec<PeerInfo>,
}

/// A completed session from one participant's perspective: the protocol
/// output plus the negotiated session metadata.
#[derive(Debug)]
pub struct SessionOutcome {
    /// The clustering, leakage log, traffic, and Yao ledger this party
    /// takes away.
    pub output: PartyOutput,
    /// Negotiated session metadata.
    pub meta: SessionMeta,
    /// The flight-recorder trace, present iff the participant opted in
    /// with [`Participant::trace`]. Tracing observes the session without
    /// participating: outputs, leakage, ledgers, and wire bytes are
    /// byte-identical with or without it (pinned by `tests/trace_parity.rs`).
    pub trace: Option<SessionTrace>,
}

/// Builder for one party of a clustering session.
///
/// ```no_run
/// use ppdbscan::session::{Participant, PartyData};
/// use ppdbscan::ProtocolConfig;
/// use ppds_dbscan::{DbscanParams, Point};
/// use ppds_smc::Party;
///
/// let cfg = ProtocolConfig::new(DbscanParams { eps_sq: 4, min_pts: 3 }, 10);
/// let points = vec![Point::new(vec![0, 0])];
/// # let mut chan = ppds_transport::duplex().0;
/// let outcome = Participant::new(cfg)
///     .role(Party::Alice)
///     .data(PartyData::Horizontal(points))
///     .seed(7)
///     .run(&mut chan)?;
/// println!("ran {} over wire v{}", outcome.meta.mode, outcome.meta.wire_version);
/// # Ok::<(), ppdbscan::CoreError>(())
/// ```
#[derive(Debug)]
pub struct Participant {
    cfg: ProtocolConfig,
    role: Option<Party>,
    data: Option<PartyData>,
    keypair: Option<Keypair>,
    ctx: Option<ProtocolContext>,
    recorder: Option<Arc<SpanRecorder>>,
}

impl Participant {
    /// Starts a builder from the publicly agreed protocol configuration.
    pub fn new(cfg: ProtocolConfig) -> Self {
        Participant {
            cfg,
            role: None,
            data: None,
            keypair: None,
            ctx: None,
            recorder: None,
        }
    }

    /// Turns on the flight recorder for this session: every protocol phase
    /// (handshake, resolve exchanges, the SMC primitives underneath)
    /// records begin/end span edges into `recorder`, each stamped with a
    /// wall-clock time and a channel [`ppds_observe::MetricsSnapshot`]. The
    /// finished trace rides back on [`SessionOutcome::trace`], ready for
    /// [`SessionTrace::rollup`] or Chrome/Perfetto export via
    /// [`SessionTrace::to_chrome_json`].
    ///
    /// Tracing is observational only — protocol outputs, leakage logs, Yao
    /// ledgers, and wire bytes are byte-identical with and without it.
    /// Untraced sessions pay one thread-local read per would-be span.
    pub fn trace(mut self, recorder: Arc<SpanRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Sets this party's role (who sends first in the key exchange, who
    /// queries first in the horizontal protocols). Required for
    /// [`Participant::run`]; ignored by [`Participant::run_mesh`], where
    /// roles are derived from party ids.
    pub fn role(mut self, role: Party) -> Self {
        self.role = Some(role);
        self
    }

    /// Sets this party's private data view, which also selects the
    /// protocol mode. Required.
    pub fn data(mut self, data: PartyData) -> Self {
        self.data = Some(data);
        self
    }

    /// The publicly agreed protocol configuration this builder carries.
    pub fn config(&self) -> &ProtocolConfig {
        &self.cfg
    }

    /// This party's data view, if one was set — what a connection preamble
    /// needs to describe the session (mode, record count, dimension)
    /// without consuming the builder.
    pub fn party_data(&self) -> Option<&PartyData> {
        self.data.as_ref()
    }

    /// Supplies a pre-generated Paillier keypair instead of generating one
    /// from the session RNG — a mesh node reuses one keypair across all of
    /// its pairwise sessions, and a long-lived deployment amortizes keygen.
    ///
    /// # Errors
    /// Rejects a keypair whose modulus size disagrees with
    /// `cfg.key_bits` — the handshake advertises the configured size, so a
    /// mismatched keypair would break the peer's expectations mid-protocol.
    pub fn keypair(mut self, keypair: Keypair) -> Result<Self, CoreError> {
        let bits = keypair.public.bits();
        if bits != self.cfg.key_bits {
            return Err(CoreError::config(format!(
                "keypair has {bits}-bit modulus but cfg.key_bits = {}",
                self.cfg.key_bits
            )));
        }
        self.keypair = Some(keypair);
        Ok(self)
    }

    /// Seeds the session's deterministic randomness. The seed becomes the
    /// root of a [`ProtocolContext`] derivation tree (session seed → mode
    /// → protocol step → query instance → record), so every draw site owns
    /// a keyed substream that is independent of execution order — batched,
    /// unbatched, and parallel evaluations of the same session draw
    /// byte-identical randomness. Equivalent to
    /// `rng(StdRng::seed_from_u64(seed))`.
    pub fn seed(self, seed: u64) -> Self {
        self.rng(StdRng::seed_from_u64(seed))
    }

    /// Supplies the session randomness as a generator: one `next_u64` draw
    /// becomes the context root seed (see [`Participant::seed`]), for
    /// `StdRng`-valued call sites ([`run_data_pair`], the bench harness).
    pub fn rng(mut self, mut rng: StdRng) -> Self {
        self.ctx = Some(ProtocolContext::from_rng(&mut rng));
        self
    }

    /// Supplies the session's [`ProtocolContext`] root directly.
    pub fn context(mut self, ctx: ProtocolContext) -> Self {
        self.ctx = Some(ctx);
        self
    }

    fn take_ctx(ctx: Option<ProtocolContext>) -> Result<ProtocolContext, CoreError> {
        ctx.ok_or_else(|| {
            CoreError::config("participant needs a randomness source: call .seed(..) or .rng(..)")
        })
    }

    /// Runs this participant's half of a two-party session over `chan`.
    ///
    /// # Errors
    /// [`CoreError::Config`] if the builder is incomplete or the local
    /// configuration is unusable, [`CoreError::HandshakeMismatch`] if the
    /// peer disagrees on any negotiated field, and the underlying protocol
    /// errors otherwise.
    pub fn run<C: Channel>(self, chan: &mut C) -> Result<SessionOutcome, CoreError> {
        let role = self
            .role
            .ok_or_else(|| CoreError::config("participant needs a role: call .role(..)"))?;
        let data = self
            .data
            .ok_or_else(|| CoreError::config("participant needs data: call .data(..)"))?;
        let ctx = Self::take_ctx(self.ctx)?;
        let cfg = self.cfg;
        let recorder = self.recorder;
        let guard = recorder
            .clone()
            .map(|rec| trace::install(rec as Arc<dyn TraceSink>));
        // A two-party session is the mesh of two: the role index is the
        // node id, and the lower id plays Alice.
        let me = match role {
            Party::Alice => 0,
            Party::Bob => 1,
        };
        let (peers, keypair) = (&mut [(1 - me, chan)], self.keypair);
        let result = match &data {
            PartyData::Horizontal(points) => {
                let mode = Mode::Horizontal;
                let driver = HorizontalDriver { points, mode };
                run_node(peers, me, &cfg, &driver, keypair, &ctx)
            }
            PartyData::Enhanced(points) => {
                let driver = crate::enhanced::EnhancedDriver { points };
                run_node(peers, me, &cfg, &driver, keypair, &ctx)
            }
            PartyData::Vertical(attrs) => {
                let driver = crate::vertical::VerticalDriver { attrs };
                run_node(peers, me, &cfg, &driver, keypair, &ctx)
            }
            PartyData::Arbitrary(values) => {
                let driver = crate::arbitrary::ArbitraryDriver { values };
                run_node(peers, me, &cfg, &driver, keypair, &ctx)
            }
            PartyData::Multiparty(_) => Err(CoreError::config(
                "multiparty data runs over a mesh: call .run_mesh(..) instead of .run(..)",
            )),
        };
        // On `Err` the guard drops here, after every span has closed.
        let (outcome, assemble) = result?;
        drop(data);
        drop(guard);
        Ok(close_session(outcome, assemble, recorder))
    }

    /// Runs this participant as node `my_id` of a `k_parties`-node mesh.
    /// `peers` holds one channel per other party, tagged with that party's
    /// global id. Requires [`PartyData::Multiparty`] data; the node's
    /// keypair (supplied or generated) is reused across all pairwise
    /// sessions.
    ///
    /// # Errors
    /// [`CoreError::Config`], before a key is generated or a byte sent, if
    /// the peer ids are not exactly the other `k_parties − 1` ids in
    /// `0..k_parties`; otherwise as [`Participant::run`].
    pub fn run_mesh<C: Channel>(
        self,
        peers: &mut [(usize, C)],
        my_id: usize,
        k_parties: usize,
    ) -> Result<SessionOutcome, CoreError> {
        let data = self
            .data
            .ok_or_else(|| CoreError::config("participant needs data: call .data(..)"))?;
        let PartyData::Multiparty(points) = data else {
            return Err(CoreError::config(
                "run_mesh needs PartyData::Multiparty; two-party data runs via .run(..)",
            ));
        };
        if peers.len() + 1 != k_parties {
            return Err(CoreError::config(format!(
                "one channel per peer: got {} for {k_parties} parties",
                peers.len()
            )));
        }
        let ctx = Self::take_ctx(self.ctx)?;
        let recorder = self.recorder;
        let guard = recorder
            .clone()
            .map(|rec| trace::install(rec as Arc<dyn TraceSink>));
        let mut peers: Vec<_> = peers.iter_mut().map(|(id, chan)| (*id, chan)).collect();
        let driver = HorizontalDriver {
            points: &points,
            mode: Mode::Multiparty,
        };
        let result = run_node(&mut peers, my_id, &self.cfg, &driver, self.keypair, &ctx);
        let (outcome, assemble) = result?;
        drop(points);
        drop(guard);
        Ok(close_session(outcome, assemble, recorder))
    }
}

/// Closes the still-open `assemble` span of a finished session. A traced
/// session hands it to its recorder, which stamps the end edge after the
/// events have moved into the trace — so nothing the session does, its own
/// trace assembly included, lies outside its top-level spans. Call with the
/// recorder's sink guard already dropped: the last handle moves its events,
/// any other copies them.
fn close_session(
    mut outcome: SessionOutcome,
    assemble: Span,
    recorder: Option<Arc<SpanRecorder>>,
) -> SessionOutcome {
    let traffic = outcome.output.traffic;
    match recorder {
        Some(rec) => outcome.trace = Some(rec.finish(Some((assemble, traffic)))),
        None => assemble.end(|| traffic),
    }
    outcome
}

/// Runs two participants against each other over an in-memory duplex pair
/// (two scoped threads), returning both outcomes `(first, second)`.
///
/// The participants must be two halves of the same two-party session —
/// complementary roles, compatible data. This is the in-process conductor
/// [`run_data_pair`] is built on; for a real deployment, run each
/// [`Participant`] in its own process over a
/// [`ppds_transport::tcp::TcpChannel`].
pub fn run_participants(
    first: Participant,
    second: Participant,
) -> Result<(SessionOutcome, SessionOutcome), CoreError> {
    run_pair(
        move |mut chan: MemoryChannel| first.run(&mut chan),
        move |mut chan: MemoryChannel| second.run(&mut chan),
    )
}

/// [`run_participants`] for the common case: Alice's and Bob's data views
/// with explicit RNG streams, returning the bare [`PartyOutput`]s — what
/// the bench harness, the in-crate tests and the integration-test helpers
/// run.
pub fn run_data_pair(
    cfg: &ProtocolConfig,
    alice: PartyData,
    bob: PartyData,
    rng_a: StdRng,
    rng_b: StdRng,
) -> Result<(PartyOutput, PartyOutput), CoreError> {
    let (a, b) = run_participants(
        Participant::new(*cfg)
            .role(Party::Alice)
            .data(alice)
            .rng(rng_a),
        Participant::new(*cfg).role(Party::Bob).data(bob).rng(rng_b),
    )?;
    Ok((a.output, b.output))
}

/// Runs all `k` parties of a multiparty session on threads over an
/// in-memory full mesh; returns one [`SessionOutcome`] per party in
/// party-id order. Each node's RNG stream derives from
/// `seed + party_id`.
pub fn run_mesh_local(
    cfg: &ProtocolConfig,
    party_points: &[Vec<Point>],
    seed: u64,
) -> Result<Vec<SessionOutcome>, CoreError> {
    let k = party_points.len();
    if k < 2 {
        return Err(CoreError::config(
            "multiparty session needs at least 2 parties",
        ));
    }

    // Build the mesh: channels[i] collects (peer_id, endpoint) for party i.
    let mut channels: Vec<Vec<(usize, MemoryChannel)>> = (0..k).map(|_| Vec::new()).collect();
    for i in 0..k {
        for j in i + 1..k {
            let (a, b) = duplex();
            channels[i].push((j, a));
            channels[j].push((i, b));
        }
    }

    let mut outcomes: Vec<Option<Result<SessionOutcome, CoreError>>> =
        (0..k).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (my_id, (mut peers, points)) in channels.drain(..).zip(party_points.iter()).enumerate()
        {
            let participant = Participant::new(*cfg)
                .data(PartyData::Multiparty(points.clone()))
                .seed(seed.wrapping_add(my_id as u64));
            handles.push(scope.spawn(move || participant.run_mesh(&mut peers, my_id, k)));
        }
        for (i, handle) in handles.into_iter().enumerate() {
            outcomes[i] = Some(
                handle
                    .join()
                    .unwrap_or(Err(CoreError::PartyPanicked("multiparty node"))),
            );
        }
    });
    outcomes
        .into_iter()
        .map(|slot| slot.expect("every party joined"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppds_dbscan::DbscanParams;

    fn cfg() -> ProtocolConfig {
        ProtocolConfig::new(
            DbscanParams {
                eps_sq: 4,
                min_pts: 2,
            },
            10,
        )
    }

    #[test]
    fn hello_roundtrips_and_checks() {
        let mine = Hello::for_session(&cfg(), Mode::Horizontal, 3, 2);
        let bytes = mine.encode_to_vec();
        let back = Hello::decode_exact(&bytes).unwrap();
        assert_eq!(back, mine);
        assert!(mine.check_against(&back).is_ok());
    }

    #[test]
    fn hello_session_id_rides_without_affecting_agreement() {
        let mine = Hello::for_session(&cfg(), Mode::Vertical, 5, 2);
        assert_eq!(mine.session_id(), None);
        let tagged = mine.clone().with_session_id(42);
        assert_eq!(tagged.session_id(), Some(42));
        // Replacing an existing id keeps exactly one field.
        let retagged = tagged.clone().with_session_id(7);
        assert_eq!(retagged.session_id(), Some(7));
        // The id is not an agreed field: frames with and without it match.
        assert!(mine.check_against(&tagged).is_ok());
        assert!(tagged.check_against(&mine).is_ok());
        // And it survives the wire.
        let back = Hello::decode_exact(&tagged.encode_to_vec()).unwrap();
        assert_eq!(back.session_id(), Some(42));
        assert_eq!(back.mode(), Some(Mode::Vertical));
        assert_eq!(back.records(), Some(5));
        assert_eq!(back.dim(), Some(2));
        assert_eq!(back.batching(), Some(false));
        assert_eq!(back.packing(), Some(false));
        assert_eq!(back.backend(), Some(BackendKind::Paillier));
        assert_eq!(back.pruning(), Some(Pruning::Exhaustive));
    }

    #[test]
    fn hello_carries_the_pruning_policy() {
        let pruned = cfg().with_pruning(Pruning::Grid { coarseness: 2 });
        let mine = Hello::for_session(&pruned, Mode::Horizontal, 3, 2);
        let back = Hello::decode_exact(&mine.encode_to_vec()).unwrap();
        assert_eq!(back.pruning(), Some(Pruning::Grid { coarseness: 2 }));
        let theirs = Hello::for_session(&cfg(), Mode::Horizontal, 3, 2);
        match mine.check_against(&theirs).unwrap_err() {
            CoreError::HandshakeMismatch {
                field,
                ours,
                theirs,
            } => {
                assert_eq!(field, "pruning");
                assert_eq!((ours, theirs), (2, 0));
            }
            other => panic!("wanted HandshakeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn negotiation_fingerprint_ignores_session_id_only() {
        let mine = Hello::for_session(&cfg(), Mode::Horizontal, 3, 2);
        assert_eq!(
            mine.negotiation_fingerprint(),
            mine.clone().with_session_id(42).negotiation_fingerprint(),
            "per-connection session ids never change the fingerprint"
        );
        let pruned = Hello::for_session(
            &cfg().with_pruning(Pruning::Grid { coarseness: 1 }),
            Mode::Horizontal,
            3,
            2,
        );
        assert_ne!(
            mine.negotiation_fingerprint(),
            pruned.negotiation_fingerprint(),
            "any agreement-relevant change re-negotiates"
        );
        assert_ne!(
            mine.negotiation_fingerprint(),
            mine.clone()
                .with_wire_version(WIRE_VERSION - 1)
                .negotiation_fingerprint(),
            "a cached verdict for this build never answers an older peer"
        );
    }

    #[test]
    fn party_data_shape_matches_driver_profiles() {
        use ppds_dbscan::Point;
        let pts = vec![Point::new(vec![0, 0]), Point::new(vec![1, 2])];
        assert_eq!(PartyData::Horizontal(pts.clone()).shape(), (2, 2));
        assert_eq!(PartyData::Enhanced(pts.clone()).shape(), (2, 2));
        assert_eq!(PartyData::Multiparty(pts.clone()).shape(), (2, 2));
        assert_eq!(PartyData::Vertical(pts).shape(), (2, 2));
        assert_eq!(PartyData::Vertical(vec![]).shape(), (0, 1));
        assert_eq!(
            PartyData::Arbitrary(vec![vec![Some(1), None, Some(3)]]).shape(),
            (1, 3)
        );
    }

    #[test]
    fn hello_rejects_foreign_wire_version_by_name() {
        let mine = Hello::for_session(&cfg(), Mode::Horizontal, 3, 2);
        let old = mine.clone().with_wire_version(1);
        let err = mine.check_against(&old).unwrap_err();
        match err {
            CoreError::HandshakeMismatch {
                field,
                ours,
                theirs,
            } => {
                assert_eq!(field, "wire_version");
                assert_eq!(ours, u64::from(WIRE_VERSION));
                assert_eq!(theirs, 1);
            }
            other => panic!("wanted HandshakeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn hello_survives_legacy_meta_frame_bytes() {
        // The legacy handshake sent Vec<u64>: a u32 length prefix (11) then
        // the values. Decoding those bytes as Hello must not error — it
        // must yield a frame whose wire_version (= 11) the checker rejects
        // by name.
        let legacy: Vec<u64> = vec![1, 3, 2, 10, 4, 2, 256, 1, 0, 20, 0];
        let bytes = legacy.encode_to_vec();
        let decoded = Hello::decode_exact(&bytes).unwrap();
        assert_eq!(decoded.wire_version, 11);
        let mine = Hello::for_session(&cfg(), Mode::Horizontal, 3, 2);
        match mine.check_against(&decoded).unwrap_err() {
            CoreError::HandshakeMismatch { field, theirs, .. } => {
                assert_eq!(field, "wire_version");
                assert_eq!(theirs, 11);
            }
            other => panic!("wanted HandshakeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn hello_field_disagreements_name_the_field() {
        let mine = Hello::for_session(&cfg(), Mode::Horizontal, 3, 2);
        let mut other_cfg = cfg();
        other_cfg.params.eps_sq = 9;
        let theirs = Hello::for_session(&other_cfg, Mode::Horizontal, 3, 2);
        match mine.check_against(&theirs).unwrap_err() {
            CoreError::HandshakeMismatch {
                field,
                ours,
                theirs,
            } => {
                assert_eq!(field, "eps_sq");
                assert_eq!((ours, theirs), (4, 9));
            }
            other => panic!("wanted HandshakeMismatch, got {other:?}"),
        }

        let theirs = Hello::for_session(&cfg().with_batching(true), Mode::Horizontal, 3, 2);
        match mine.check_against(&theirs).unwrap_err() {
            CoreError::HandshakeMismatch { field, .. } => assert_eq!(field, "batching"),
            other => panic!("wanted HandshakeMismatch, got {other:?}"),
        }

        let theirs = Hello::for_session(
            &cfg().with_backend(BackendKind::Sharing),
            Mode::Horizontal,
            3,
            2,
        );
        match mine.check_against(&theirs).unwrap_err() {
            CoreError::HandshakeMismatch {
                field,
                ours,
                theirs,
            } => {
                assert_eq!(field, "backend");
                assert_eq!((ours, theirs), (0, 1));
            }
            other => panic!("wanted HandshakeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn dimension_zero_matches_anything() {
        let mine = Hello::for_session(&cfg(), Mode::Horizontal, 3, 2);
        let empty = Hello::for_session(&cfg(), Mode::Horizontal, 0, 0);
        assert!(mine.check_against(&empty).is_ok());
        let three_d = Hello::for_session(&cfg(), Mode::Horizontal, 3, 3);
        assert!(mine.check_against(&three_d).is_err());
        // Vertical parties own different attribute slices.
        let vertical = |dim| Hello::for_session(&cfg(), Mode::Vertical, 3, dim);
        assert!(vertical(2).check_against(&vertical(3)).is_ok());
    }

    #[test]
    fn builder_reports_missing_pieces() {
        let (mut chan, _peer) = duplex();
        let err = Participant::new(cfg()).run(&mut chan).unwrap_err();
        assert!(matches!(err, CoreError::Config(_)), "{err}");
        let err = Participant::new(cfg())
            .role(Party::Alice)
            .data(PartyData::Horizontal(vec![]))
            .run(&mut chan)
            .unwrap_err();
        assert!(err.to_string().contains("randomness"), "{err}");
    }

    #[test]
    fn keypair_bits_validated_against_config() {
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let kp = Keypair::generate(128, &mut rng);
        let err = Participant::new(cfg()).keypair(kp).unwrap_err();
        assert!(matches!(err, CoreError::Config(_)), "{err}");
        let kp256 = Keypair::generate(256, &mut rng);
        assert!(Participant::new(cfg()).keypair(kp256).is_ok());
    }

    #[test]
    fn two_party_data_rejected_by_run_mesh_and_vice_versa() {
        let err = Participant::new(cfg())
            .data(PartyData::Horizontal(vec![]))
            .seed(1)
            .run_mesh::<MemoryChannel>(&mut [], 0, 2)
            .unwrap_err();
        assert!(err.to_string().contains("run_mesh needs"), "{err}");
        let (mut chan, _peer) = duplex();
        let err = Participant::new(cfg())
            .role(Party::Alice)
            .data(PartyData::Multiparty(vec![]))
            .seed(1)
            .run(&mut chan)
            .unwrap_err();
        assert!(err.to_string().contains("mesh"), "{err}");
    }
}
