//! The pluggable SMC backend: one trait, two cryptographic substrates.
//!
//! Every protocol mode reaches its three SMC workhorses — secure
//! comparison / `share_less_than`, Beaver-style multiplication folds, and
//! the one-round `dot_many` — through [`SmcBackend`], selected per session
//! by `ProtocolConfig::backend` exactly like the Ideal/DGK/Yao comparator
//! choice:
//!
//! * [`PaillierBackend`] delegates to the homomorphic implementations
//!   ([`crate::compare`], [`crate::multiplication`]), preserving every
//!   scoping convention the drivers used when they called those functions
//!   directly (masks from `ctx.narrow("mask").rng_for(record)`,
//!   multiplication scopes at `ctx.narrow("mul").at(record)`), so routing
//!   through the trait changes nothing observable.
//! * [`SharingBackend`] routes to [`crate::sharing`]: 8-byte ring elements
//!   instead of 512–2048-bit ciphertexts, with correlated randomness from
//!   the session's [`DealerTape`] and trust substitutions accounted in a
//!   [`SharingLedger`].
//!
//! Each primitive exists once, over a slice of items; this module is also
//! the one reader of the framing policy (`framed`): `batching` ships a
//! slice as one frame per protocol message, the reference framing ships the
//! same items one frame each. It never touches a Paillier ciphertext itself
//! — it only dispatches (a CI grep guard keeps it that way).

use crate::compare::{
    compare_alice, compare_bob, share_diffs, CmpOp, Comparator, ComparisonDomain,
};
use crate::context::{ProtocolContext, RecordId};
use crate::error::SmcError;
use crate::leakage::Party;
use crate::multiplication::{
    dot_many_keyholder, dot_many_peer, mul_batches_keyholder, mul_batches_peer, zero_sum_masks,
    ResponsePacking,
};
use crate::sharing::{
    sample_mask_i64, sharing_compare, sharing_compare_finish, sharing_compare_post,
    sharing_dot_querier, sharing_dot_responder, sharing_fold_keyholder,
    sharing_fold_keyholder_finish, sharing_fold_keyholder_post, sharing_fold_peer, DealerTape, Fe,
    SharingLedger, MAX_SHARING_MASK,
};
use ppds_bigint::{BigInt, BigUint};
use ppds_paillier::{Keypair, PublicKey};
use ppds_transport::wire::WireEncode;
use ppds_transport::{Channel, FRAME_OVERHEAD_BYTES};
use std::ops::Range;

/// Which cryptographic substrate a session's SMC workhorses run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendKind {
    /// The paper's homomorphic path: Paillier ciphertexts end to end.
    #[default]
    Paillier,
    /// Additive secret sharing over `Z_2^64` ([`crate::sharing`]).
    Sharing,
}

impl BackendKind {
    /// Stable wire tag for the Hello handshake.
    pub fn tag(self) -> u8 {
        match self {
            BackendKind::Paillier => 0,
            BackendKind::Sharing => 1,
        }
    }

    /// Inverse of [`BackendKind::tag`].
    pub fn from_tag(tag: u8) -> Option<BackendKind> {
        match tag {
            0 => Some(BackendKind::Paillier),
            1 => Some(BackendKind::Sharing),
            _ => None,
        }
    }

    /// Human-readable name (benchmark rows, session metadata).
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Paillier => "paillier",
            BackendKind::Sharing => "sharing",
        }
    }
}

/// The backend dispatch surface. Every method takes a *slice* of items —
/// comparisons, share pairs, multiplication groups — and each backend has
/// one implementation of it per primitive; how the slice is cut into wire
/// frames is the backend's `batching` policy and nobody else's (see
/// `framed`), so callers hand over everything they have and never ask.
///
/// `role` on the comparison methods is the *comparison* role
/// ([`Party::Alice`] holds the compare keypair on the Paillier path; sharing
/// ignores keys but keeps the same send/recv ordering). The
/// multiplication/dot methods encode their role in the method name. `acct`
/// collects the sharing backend's trust-substitution ledger; the Paillier
/// backend leaves it untouched, which is exactly the audit claim that no
/// sharing substitution occurred.
pub trait SmcBackend {
    /// Which substrate this backend runs on.
    fn kind(&self) -> BackendKind;

    /// Secure comparisons, one verdict `alice_values[i] OP bob_values[i]`
    /// per element; comparison `i` draws from `scopes(i)` and from nothing
    /// else.
    #[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
    fn compare_scoped<C, S>(
        &self,
        chan: &mut C,
        role: Party,
        values: &[i64],
        op: CmpOp,
        domain: &ComparisonDomain,
        scopes: S,
        acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError>
    where
        C: Channel,
        S: Fn(usize) -> ProtocolContext;

    /// Share comparisons (§5): per pair, the party's
    /// `(share_of_a, share_of_b)`; both sides learn `dist_a < dist_b`.
    /// Scoped like [`SmcBackend::compare_scoped`].
    fn share_less_than_scoped<C, S>(
        &self,
        chan: &mut C,
        role: Party,
        pairs: &[(i64, i64)],
        domain: &ComparisonDomain,
        scopes: S,
        acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError>
    where
        C: Channel,
        S: Fn(usize) -> ProtocolContext;

    /// One secure comparison at its own scope `ctx`: the slice of one.
    #[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
    fn compare<C: Channel>(
        &self,
        chan: &mut C,
        role: Party,
        value: i64,
        op: CmpOp,
        domain: &ComparisonDomain,
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<bool, SmcError> {
        Ok(self.compare_scoped(chan, role, &[value], op, domain, |_| *ctx, acct)?[0])
    }

    /// The comparisons of one protocol step: element `i` is scoped
    /// `ctx.at(i)` — its position in the slice.
    #[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
    fn compare_batch<C: Channel>(
        &self,
        chan: &mut C,
        role: Party,
        values: &[i64],
        op: CmpOp,
        domain: &ComparisonDomain,
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError> {
        self.compare_scoped(chan, role, values, op, domain, |i| ctx.at(i as u64), acct)
    }

    /// Querier (key-holding) side of the one-exchange dot products of a
    /// slice of queries: query `q` holds the vector `xs[q]`, is scoped
    /// `scopes(q)`, and learns `u_j = ⟨xs[q], y_j⟩ + v_j` for each of the
    /// `expected_rows[q]` rows the responder serves it. Returns every query's
    /// shares, concatenated in query order.
    fn dot_queries_querier<C, X, S>(
        &self,
        chan: &mut C,
        xs: &[X],
        expected_rows: &[usize],
        scopes: S,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError>
    where
        C: Channel,
        X: AsRef<[i64]>,
        S: Fn(usize) -> ProtocolContext;

    /// Responder side of [`SmcBackend::dot_queries_querier`]: supplies every
    /// query's rows back to back, `rows_per_query[q]` of them for query `q`,
    /// draws the masks `v_j` (its output shares) from
    /// `scopes(q).rng_for(j)`, and returns them in row order.
    fn dot_queries_responder<C, S>(
        &self,
        chan: &mut C,
        rows: &[Vec<i64>],
        rows_per_query: &[usize],
        scopes: S,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError>
    where
        C: Channel,
        S: Fn(usize) -> ProtocolContext;

    /// One query's dot products at its own scope `ctx`: the slice of one.
    fn dot_many_querier<C: Channel>(
        &self,
        chan: &mut C,
        xs: &[i64],
        expected_rows: usize,
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        self.dot_queries_querier(chan, &[xs], &[expected_rows], |_| *ctx, acct)
    }

    /// Responder side of [`SmcBackend::dot_many_querier`].
    fn dot_many_responder<C: Channel>(
        &self,
        chan: &mut C,
        rows: &[Vec<i64>],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        self.dot_queries_responder(chan, rows, &[rows.len()], |_| *ctx, acct)
    }

    /// Ships a run of public protocol messages under this backend's framing:
    /// one batch frame for the run when it batches, a frame a message when
    /// it does not. The receiver needs no policy — it reads batch frames
    /// until it holds as many messages as the protocol says are due.
    fn send_framed<C: Channel, T: WireEncode>(
        &self,
        chan: &mut C,
        messages: &[T],
    ) -> Result<(), SmcError>;

    /// Key-holding side of the multiplication folds of a slice of queries:
    /// holds one vector `groups[i]` per pair — the first `per_query[0]`
    /// pairs query 0's, and so on — and learns, per pair, the exact inner
    /// product with the peer's vector for its query (the per-element masks
    /// of the Paillier path are zero-sum, so its folded sum is the same
    /// exact value). Pair `i` is scoped by `records[i]` under `ctx`.
    fn mul_fold_queries_keyholder<C: Channel, X: AsRef<[i64]>>(
        &self,
        chan: &mut C,
        groups: &[X],
        per_query: &[usize],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError>;

    /// Peer side of [`SmcBackend::mul_fold_queries_keyholder`]: one vector
    /// `queries[q]` per query, served `per_query[q]` pairs.
    fn mul_fold_queries_peer<C: Channel, Y: AsRef<[i64]>>(
        &self,
        chan: &mut C,
        queries: &[Y],
        per_query: &[usize],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<(), SmcError>;

    /// Key-holding side of the multiplication fold, each group its own
    /// query: for each group `g` (scoped by `records[g]` under `ctx`),
    /// learns the exact inner product `⟨groups[g], peer_group[g]⟩`.
    fn mul_fold_keyholder<C: Channel>(
        &self,
        chan: &mut C,
        groups: &[Vec<i64>],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        let per_query = vec![1; groups.len()];
        self.mul_fold_queries_keyholder(chan, groups, &per_query, records, ctx, acct)
    }

    /// Peer side of [`SmcBackend::mul_fold_keyholder`].
    fn mul_fold_peer<C: Channel>(
        &self,
        chan: &mut C,
        groups: &[Vec<i64>],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<(), SmcError> {
        let per_query = vec![1; groups.len()];
        self.mul_fold_queries_peer(chan, groups, &per_query, records, ctx, acct)
    }

    // Split exchanges. A fold-then-compare exchange (one HDP resolve chunk)
    // opens with the keyholder's fold messages and, once the peer has
    // answered them, Alice's half of the comparison: both need nothing from
    // the other side. A backend that ships them in the `*_post` halves lets
    // the caller keep several exchanges in flight, each closed later by its
    // `*_finish` half. The provided halves post nothing and run the whole
    // call in `finish`, so a caller that keeps one exchange in flight —
    // which is what `None` from `split_exchange_bytes` asks for — puts the
    // unsplit call's frames on the wire in the unsplit call's order.

    /// Wire bytes each way, `(keyholder → peer, peer → keyholder)`, of one
    /// exchange of `pairs` keyholder folds of `len` elements each, over
    /// `queries` queries served at least one pair, followed by one
    /// comparison a pair (the keyholder comparing as [`Party::Bob`]) — when
    /// this backend's `*_post` halves ship ahead. `None` (the default) when
    /// they post nothing.
    fn split_exchange_bytes(
        &self,
        _pairs: usize,
        _queries: usize,
        _len: usize,
    ) -> Option<(usize, usize)> {
        None
    }

    /// The part of [`SmcBackend::mul_fold_queries_keyholder`] that needs
    /// nothing from the peer; [`SmcBackend::mul_fold_keyholder_finish`]
    /// with the same arguments completes it.
    fn mul_fold_keyholder_post<C: Channel, X: AsRef<[i64]>>(
        &self,
        _chan: &mut C,
        _groups: &[X],
        _per_query: &[usize],
        _records: &[RecordId],
        _ctx: &ProtocolContext,
    ) -> Result<(), SmcError> {
        Ok(())
    }

    /// The rest of [`SmcBackend::mul_fold_queries_keyholder`] after
    /// [`SmcBackend::mul_fold_keyholder_post`].
    fn mul_fold_keyholder_finish<C: Channel, X: AsRef<[i64]>>(
        &self,
        chan: &mut C,
        groups: &[X],
        per_query: &[usize],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        self.mul_fold_queries_keyholder(chan, groups, per_query, records, ctx, acct)
    }

    /// The part of [`Party::Alice`]'s [`SmcBackend::compare_batch`] that
    /// needs nothing from Bob; [`SmcBackend::compare_batch_finish`] with the
    /// same `values` and `ctx` completes it.
    fn compare_batch_post<C: Channel>(
        &self,
        _chan: &mut C,
        _values: &[i64],
        _ctx: &ProtocolContext,
    ) -> Result<(), SmcError> {
        Ok(())
    }

    /// The rest of Alice's [`SmcBackend::compare_batch`] after
    /// [`SmcBackend::compare_batch_post`].
    fn compare_batch_finish<C: Channel>(
        &self,
        chan: &mut C,
        values: &[i64],
        op: CmpOp,
        domain: &ComparisonDomain,
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError> {
        self.compare_batch(chan, Party::Alice, values, op, domain, ctx, acct)
    }
}

/// The framing policy, read here and nowhere else: a primitive is handed
/// all `items` at once when `batching` — one frame per protocol message for
/// the lot — and one item at a time otherwise, the paper-literal reference
/// framing: the same items at the same scopes, hence the same bytes, in
/// `items` times the frames. `run` receives the index range to ship and
/// returns that range's outputs, which are concatenated in index order.
fn framed<T>(
    batching: bool,
    items: usize,
    mut run: impl FnMut(Range<usize>) -> Result<Vec<T>, SmcError>,
) -> Result<Vec<T>, SmcError> {
    if batching || items <= 1 {
        return run(0..items);
    }
    let mut out = Vec::with_capacity(items);
    for i in 0..items {
        out.extend(run(i..i + 1)?);
    }
    Ok(out)
}

/// [`SmcBackend::send_framed`] for a backend whose policy is `batching`.
fn send_framed<C: Channel, T: WireEncode>(
    batching: bool,
    chan: &mut C,
    messages: &[T],
) -> Result<(), SmcError> {
    if messages.is_empty() {
        return Ok(());
    }
    framed(batching, messages.len(), |at| {
        chan.send_batch(&messages[at])?;
        Ok(Vec::<()>::new())
    })
    .map(drop)
}

/// Where each query's rows start in the flat row vector of a dot exchange,
/// with the total as a last entry.
fn row_starts(rows_per_query: &[usize], rows: usize) -> Vec<usize> {
    let mut starts = vec![0];
    starts.extend(rows_per_query.iter().scan(0, |at, &count| {
        *at += count;
        Some(*at)
    }));
    assert_eq!(starts.last(), Some(&rows), "every row belongs to one query");
    starts
}

fn bigints(values: &[i64]) -> Vec<BigInt> {
    values.iter().map(|&v| BigInt::from_i64(v)).collect()
}

fn to_i64(v: &BigInt, what: &str) -> Result<i64, SmcError> {
    v.to_i64()
        .ok_or_else(|| SmcError::protocol(format!("{what} overflows i64")))
}

/// The homomorphic substrate: every method delegates to the Paillier
/// implementation with the scoping conventions the drivers used before the
/// trait existed (masks from `ctx.narrow("mask").rng_for(record)`,
/// multiplication scopes at `ctx.narrow("mul").at(record)`).
pub struct PaillierBackend<'a> {
    /// This party's keypair (used when it plays the key-holding role).
    pub my_keypair: &'a Keypair,
    /// The peer's public key (used when the peer holds the key).
    pub peer_pk: &'a PublicKey,
    /// Comparison backend (Yao / Ideal / DGK).
    pub comparator: Comparator,
    /// Plaintext-slot packing on comparison transcripts.
    pub packed: bool,
    /// Round-batched framing: every slice one frame per protocol message;
    /// off, every item a frame of its own (`framed`).
    pub batching: bool,
    /// Packing layout for multiplication responses (dimension-dependent).
    pub mul_packing: Option<ResponsePacking>,
    /// Packing layout for dot-product responses (dimension-dependent).
    pub dot_packing: Option<ResponsePacking>,
    /// Mask bound for multiplication zero-sum masks.
    pub mul_mask_bound: BigUint,
    /// Mask bound for dot-product output masks.
    pub dot_mask_bound: BigUint,
}

impl SmcBackend for PaillierBackend<'_> {
    fn kind(&self) -> BackendKind {
        BackendKind::Paillier
    }

    fn compare_scoped<C, S>(
        &self,
        chan: &mut C,
        role: Party,
        values: &[i64],
        op: CmpOp,
        domain: &ComparisonDomain,
        scopes: S,
        _acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError>
    where
        C: Channel,
        S: Fn(usize) -> ProtocolContext,
    {
        let (comparator, packed) = (self.comparator, self.packed);
        framed(self.batching, values.len(), |at| {
            let (values, scopes) = (&values[at.clone()], |i| scopes(at.start + i));
            match role {
                Party::Alice => {
                    let keypair = self.my_keypair;
                    compare_alice(comparator, chan, keypair, values, domain, packed, scopes)
                }
                Party::Bob => {
                    let alice_pk = self.peer_pk;
                    compare_bob(comparator, chan, alice_pk, values, op, domain, scopes)
                }
            }
        })
    }

    fn share_less_than_scoped<C, S>(
        &self,
        chan: &mut C,
        role: Party,
        pairs: &[(i64, i64)],
        domain: &ComparisonDomain,
        scopes: S,
        acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError>
    where
        C: Channel,
        S: Fn(usize) -> ProtocolContext,
    {
        // §5: `dist_a < dist_b` is `u_a − u_b < v_a − v_b`, one ordinary
        // comparison per pair over each party's local difference.
        let diffs = share_diffs(pairs, domain)?;
        self.compare_scoped(chan, role, &diffs, CmpOp::Lt, domain, scopes, acct)
    }

    fn dot_queries_querier<C, X, S>(
        &self,
        chan: &mut C,
        xs: &[X],
        expected_rows: &[usize],
        scopes: S,
        _acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError>
    where
        C: Channel,
        X: AsRef<[i64]>,
        S: Fn(usize) -> ProtocolContext,
    {
        let queries: Vec<Vec<BigInt>> = xs.iter().map(|x| bigints(x.as_ref())).collect();
        framed(self.batching, queries.len(), |at| {
            let raw = dot_many_keyholder(
                chan,
                self.my_keypair,
                &queries[at.clone()],
                &expected_rows[at.clone()],
                self.dot_packing.as_ref(),
                |q| scopes(at.start + q),
            )?;
            raw.iter().map(|v| to_i64(v, "distance share")).collect()
        })
    }

    fn dot_queries_responder<C, S>(
        &self,
        chan: &mut C,
        rows: &[Vec<i64>],
        rows_per_query: &[usize],
        scopes: S,
        _acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError>
    where
        C: Channel,
        S: Fn(usize) -> ProtocolContext,
    {
        let starts = row_starts(rows_per_query, rows.len());
        let rows_big: Vec<Vec<BigInt>> = rows.iter().map(|r| bigints(r)).collect();
        framed(self.batching, rows_per_query.len(), |at| {
            let masks = dot_many_peer(
                chan,
                self.peer_pk,
                &rows_big[starts[at.start]..starts[at.end]],
                &rows_per_query[at.clone()],
                &self.dot_mask_bound,
                self.dot_packing.as_ref(),
                |q| scopes(at.start + q),
            )?;
            masks.iter().map(|v| to_i64(v, "distance share")).collect()
        })
    }

    fn send_framed<C: Channel, T: WireEncode>(
        &self,
        chan: &mut C,
        messages: &[T],
    ) -> Result<(), SmcError> {
        send_framed(self.batching, chan, messages)
    }

    // The paper's recipe, one Multiplication Protocol a pair: a query's
    // vector is the peer's group for each of its pairs, and an item is a pair.

    fn mul_fold_queries_keyholder<C: Channel, X: AsRef<[i64]>>(
        &self,
        chan: &mut C,
        groups: &[X],
        per_query: &[usize],
        records: &[RecordId],
        ctx: &ProtocolContext,
        _acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        assert_eq!(groups.len(), records.len(), "one record scope per pair");
        let pairs: usize = per_query.iter().sum();
        assert_eq!(pairs, groups.len(), "every pair belongs to one query");
        let mul_ctx = ctx.narrow("mul");
        let xs_groups: Vec<Vec<BigInt>> = groups.iter().map(|g| bigints(g.as_ref())).collect();
        framed(self.batching, groups.len(), |at| {
            let all = mul_batches_keyholder(
                chan,
                self.my_keypair,
                &xs_groups[at.clone()],
                |g| mul_ctx.at(records[at.start + g]),
                self.mul_packing.as_ref(),
            )?;
            all.iter()
                .map(|ws| {
                    let sum = ws.iter().fold(BigInt::zero(), |acc, w| &acc + w);
                    to_i64(&sum, "folded product")
                })
                .collect()
        })
    }

    fn mul_fold_queries_peer<C: Channel, Y: AsRef<[i64]>>(
        &self,
        chan: &mut C,
        queries: &[Y],
        per_query: &[usize],
        records: &[RecordId],
        ctx: &ProtocolContext,
        _acct: &mut SharingLedger,
    ) -> Result<(), SmcError> {
        assert_eq!(queries.len(), per_query.len(), "one vector per query");
        let pairs: usize = per_query.iter().sum();
        assert_eq!(pairs, records.len(), "one record scope per pair");
        let mask_ctx = ctx.narrow("mask");
        let mul_ctx = ctx.narrow("mul");
        let mut ys_groups: Vec<Vec<BigInt>> = Vec::with_capacity(records.len());
        for (ys, &count) in queries.iter().zip(per_query) {
            let ys = bigints(ys.as_ref());
            ys_groups.extend(std::iter::repeat_n(ys, count));
        }
        framed(self.batching, records.len(), |at| {
            let record = |g: usize| records[at.start + g];
            let ys_groups = &ys_groups[at.clone()];
            mul_batches_peer(
                chan,
                self.peer_pk,
                ys_groups,
                |g| {
                    let masks = mask_ctx.rng_for(record(g));
                    zero_sum_masks(masks, ys_groups[g].len(), &self.mul_mask_bound)
                },
                |g| mul_ctx.at(record(g)),
                self.mul_packing.as_ref(),
            )
        })
        .map(drop)
    }
}

/// The secret-sharing substrate: 8-byte ring elements, correlations from
/// the session [`DealerTape`], substitutions accounted in the
/// [`SharingLedger`].
#[derive(Debug, Clone, Copy)]
pub struct SharingBackend {
    /// The session's shared dealer tape.
    pub tape: DealerTape,
    /// Round-batched framing: every slice one frame per protocol message;
    /// off, every item a frame of its own (`framed`).
    pub batching: bool,
    /// Mask bound for dot-product output masks (clamped to
    /// [`MAX_SHARING_MASK`] so driver-side `i64` sums stay exact).
    pub dot_mask_bound: u64,
}

fn fes(values: &[i64]) -> Vec<Fe> {
    values.iter().map(|&v| Fe::embed(v)).collect()
}

impl SharingBackend {
    /// Both comparison methods: item `i` compares `operand(i)`, a ring
    /// element computed as the item is shipped.
    #[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
    fn compare_operands<C: Channel>(
        &self,
        chan: &mut C,
        role: Party,
        items: usize,
        operand: impl Fn(usize) -> Fe,
        op: CmpOp,
        domain: &ComparisonDomain,
        scopes: impl Fn(usize) -> ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError> {
        framed(self.batching, items, |at| {
            let (operands, scopes) = (at.clone().map(&operand), |i| scopes(at.start + i));
            sharing_compare(&self.tape, chan, role, operands, op, domain, scopes, acct)
        })
    }
}

impl SmcBackend for SharingBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Sharing
    }

    fn compare_scoped<C, S>(
        &self,
        chan: &mut C,
        role: Party,
        values: &[i64],
        op: CmpOp,
        domain: &ComparisonDomain,
        scopes: S,
        acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError>
    where
        C: Channel,
        S: Fn(usize) -> ProtocolContext,
    {
        let operand = |i: usize| Fe::embed(values[i]);
        self.compare_operands(chan, role, values.len(), operand, op, domain, scopes, acct)
    }

    fn share_less_than_scoped<C, S>(
        &self,
        chan: &mut C,
        role: Party,
        pairs: &[(i64, i64)],
        domain: &ComparisonDomain,
        scopes: S,
        acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError>
    where
        C: Channel,
        S: Fn(usize) -> ProtocolContext,
    {
        // Share differences are taken in-field, so they never overflow
        // whatever the mask width.
        let diff = |i: usize| Fe::embed(pairs[i].0) - Fe::embed(pairs[i].1);
        self.compare_operands(
            chan,
            role,
            pairs.len(),
            diff,
            CmpOp::Lt,
            domain,
            scopes,
            acct,
        )
    }

    fn dot_queries_querier<C, X, S>(
        &self,
        chan: &mut C,
        xs: &[X],
        expected_rows: &[usize],
        scopes: S,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError>
    where
        C: Channel,
        X: AsRef<[i64]>,
        S: Fn(usize) -> ProtocolContext,
    {
        let queries: Vec<Vec<Fe>> = xs.iter().map(|x| fes(x.as_ref())).collect();
        framed(self.batching, queries.len(), |at| {
            let (queries, rows) = (&queries[at.clone()], &expected_rows[at.clone()]);
            let scopes = |q| scopes(at.start + q);
            let us = sharing_dot_querier(&self.tape, chan, queries, rows, scopes, acct)?;
            Ok(us.into_iter().map(Fe::lift).collect())
        })
    }

    fn dot_queries_responder<C, S>(
        &self,
        chan: &mut C,
        rows: &[Vec<i64>],
        rows_per_query: &[usize],
        scopes: S,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError>
    where
        C: Channel,
        S: Fn(usize) -> ProtocolContext,
    {
        let starts = row_starts(rows_per_query, rows.len());
        // Masks are this party's private output shares: drawn from its own
        // session randomness at the same per-row scope the Paillier path
        // uses (`scopes(q).rng_for(j)`), never from the shared tape.
        let mut masks = Vec::with_capacity(rows.len());
        for (q, &count) in rows_per_query.iter().enumerate() {
            let ctx = scopes(q);
            let draw = |j| sample_mask_i64(ctx.rng_for(j as u64), self.dot_mask_bound);
            masks.extend((0..count).map(draw));
        }
        let row_fes: Vec<Vec<Fe>> = rows.iter().map(|r| fes(r)).collect();
        let mask_fes = fes(&masks);
        framed(self.batching, rows_per_query.len(), |at| {
            let mine = starts[at.start]..starts[at.end];
            sharing_dot_responder(
                &self.tape,
                chan,
                &row_fes[mine.clone()],
                &mask_fes[mine],
                &rows_per_query[at.clone()],
                |q| scopes(at.start + q),
                acct,
            )
            .map(|()| Vec::<()>::new())
        })?;
        Ok(masks)
    }

    fn send_framed<C: Channel, T: WireEncode>(
        &self,
        chan: &mut C,
        messages: &[T],
    ) -> Result<(), SmcError> {
        send_framed(self.batching, chan, messages)
    }

    fn mul_fold_queries_keyholder<C: Channel, X: AsRef<[i64]>>(
        &self,
        chan: &mut C,
        groups: &[X],
        per_query: &[usize],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        assert_eq!(groups.len(), records.len(), "one record scope per pair");
        let starts = row_starts(per_query, groups.len());
        let mul_ctx = ctx.narrow("mul");
        framed(self.batching, per_query.len(), |at| {
            let pairs = starts[at.start]..starts[at.end];
            let scopes = |i| mul_ctx.at(records[pairs.start + i]);
            let per_query = &per_query[at];
            let us = sharing_fold_keyholder(
                &self.tape,
                chan,
                &groups[pairs.clone()],
                per_query,
                scopes,
                acct,
            )?;
            Ok(us.into_iter().map(Fe::lift).collect())
        })
    }

    fn mul_fold_queries_peer<C: Channel, Y: AsRef<[i64]>>(
        &self,
        chan: &mut C,
        queries: &[Y],
        per_query: &[usize],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<(), SmcError> {
        let starts = row_starts(per_query, records.len());
        let mul_ctx = ctx.narrow("mul");
        framed(self.batching, per_query.len(), |at| {
            let first = starts[at.start];
            let scopes = |i| mul_ctx.at(records[first + i]);
            let (queries, per_query) = (&queries[at.clone()], &per_query[at]);
            sharing_fold_peer(&self.tape, chan, queries, per_query, scopes, acct)
                .map(|()| Vec::<()>::new())
        })
        .map(drop)
    }

    // Batched, a fold ships every pair's `D` as one frame and a comparison
    // slice all of Alice's shares as one, so both split at their one
    // receive. The reference framing interleaves an item's send and
    // receive, so it keeps the unsplit calls.

    fn split_exchange_bytes(
        &self,
        pairs: usize,
        queries: usize,
        len: usize,
    ) -> Option<(usize, usize)> {
        // Two frames each way, flat runs of elements. Keyholder to peer, per
        // pair: a masked vector `D` and Bob's share of the open; the other
        // way `E` once a query, and per pair one `s` and Alice's share.
        let frames = 2 * FRAME_OVERHEAD_BYTES as usize;
        let keyholder = frames + pairs * 8 * (len + 1);
        let peer = frames + queries * 8 * len + pairs * 16;
        self.batching.then_some((keyholder, peer))
    }

    fn mul_fold_keyholder_post<C: Channel, X: AsRef<[i64]>>(
        &self,
        chan: &mut C,
        groups: &[X],
        _per_query: &[usize],
        records: &[RecordId],
        ctx: &ProtocolContext,
    ) -> Result<(), SmcError> {
        if !self.batching {
            return Ok(());
        }
        assert_eq!(groups.len(), records.len(), "one record scope per pair");
        let mul_ctx = ctx.narrow("mul");
        let scopes = |i: usize| mul_ctx.at(records[i]);
        sharing_fold_keyholder_post(&self.tape, chan, groups, scopes)
    }

    fn mul_fold_keyholder_finish<C: Channel, X: AsRef<[i64]>>(
        &self,
        chan: &mut C,
        groups: &[X],
        per_query: &[usize],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        if !self.batching {
            return self.mul_fold_queries_keyholder(chan, groups, per_query, records, ctx, acct);
        }
        assert_eq!(groups.len(), records.len(), "one record scope per pair");
        let mul_ctx = ctx.narrow("mul");
        let scopes = |i: usize| mul_ctx.at(records[i]);
        let us = sharing_fold_keyholder_finish(&self.tape, chan, groups, per_query, scopes, acct)?;
        Ok(us.into_iter().map(Fe::lift).collect())
    }

    fn compare_batch_post<C: Channel>(
        &self,
        chan: &mut C,
        values: &[i64],
        ctx: &ProtocolContext,
    ) -> Result<(), SmcError> {
        if !self.batching {
            return Ok(());
        }
        let operands = values.iter().map(|&v| Fe::embed(v));
        sharing_compare_post(&self.tape, chan, operands, |i| ctx.at(i as u64))
    }

    fn compare_batch_finish<C: Channel>(
        &self,
        chan: &mut C,
        values: &[i64],
        op: CmpOp,
        domain: &ComparisonDomain,
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError> {
        if !self.batching {
            return self.compare_batch(chan, Party::Alice, values, op, domain, ctx, acct);
        }
        let operands = values.iter().map(|&v| Fe::embed(v));
        let scopes = |i: usize| ctx.at(i as u64);
        sharing_compare_finish(&self.tape, chan, operands, op, domain, scopes, acct)
    }
}

/// Session-level backend value: the concrete choice made by
/// `ProtocolConfig::backend`, dispatching every trait method to the
/// matching substrate.
pub enum AnyBackend<'a> {
    /// Homomorphic substrate.
    Paillier(PaillierBackend<'a>),
    /// Secret-sharing substrate.
    Sharing(SharingBackend),
}

macro_rules! dispatch {
    ($self:ident, $b:ident => $call:expr) => {
        match $self {
            AnyBackend::Paillier($b) => $call,
            AnyBackend::Sharing($b) => $call,
        }
    };
}

impl SmcBackend for AnyBackend<'_> {
    fn kind(&self) -> BackendKind {
        dispatch!(self, b => b.kind())
    }

    fn compare_scoped<C, S>(
        &self,
        chan: &mut C,
        role: Party,
        values: &[i64],
        op: CmpOp,
        domain: &ComparisonDomain,
        scopes: S,
        acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError>
    where
        C: Channel,
        S: Fn(usize) -> ProtocolContext,
    {
        dispatch!(self, b => b.compare_scoped(chan, role, values, op, domain, scopes, acct))
    }

    fn share_less_than_scoped<C, S>(
        &self,
        chan: &mut C,
        role: Party,
        pairs: &[(i64, i64)],
        domain: &ComparisonDomain,
        scopes: S,
        acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError>
    where
        C: Channel,
        S: Fn(usize) -> ProtocolContext,
    {
        dispatch!(self, b => b.share_less_than_scoped(chan, role, pairs, domain, scopes, acct))
    }

    fn dot_queries_querier<C, X, S>(
        &self,
        chan: &mut C,
        xs: &[X],
        expected_rows: &[usize],
        scopes: S,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError>
    where
        C: Channel,
        X: AsRef<[i64]>,
        S: Fn(usize) -> ProtocolContext,
    {
        dispatch!(self, b => b.dot_queries_querier(chan, xs, expected_rows, scopes, acct))
    }

    fn dot_queries_responder<C, S>(
        &self,
        chan: &mut C,
        rows: &[Vec<i64>],
        rows_per_query: &[usize],
        scopes: S,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError>
    where
        C: Channel,
        S: Fn(usize) -> ProtocolContext,
    {
        dispatch!(self, b => b.dot_queries_responder(chan, rows, rows_per_query, scopes, acct))
    }

    fn send_framed<C: Channel, T: WireEncode>(
        &self,
        chan: &mut C,
        messages: &[T],
    ) -> Result<(), SmcError> {
        dispatch!(self, b => b.send_framed(chan, messages))
    }

    fn mul_fold_queries_keyholder<C: Channel, X: AsRef<[i64]>>(
        &self,
        chan: &mut C,
        groups: &[X],
        per_query: &[usize],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        dispatch!(self, b => b.mul_fold_queries_keyholder(chan, groups, per_query, records, ctx, acct))
    }

    fn mul_fold_queries_peer<C: Channel, Y: AsRef<[i64]>>(
        &self,
        chan: &mut C,
        queries: &[Y],
        per_query: &[usize],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<(), SmcError> {
        dispatch!(self, b => b.mul_fold_queries_peer(chan, queries, per_query, records, ctx, acct))
    }

    fn split_exchange_bytes(
        &self,
        pairs: usize,
        queries: usize,
        len: usize,
    ) -> Option<(usize, usize)> {
        dispatch!(self, b => b.split_exchange_bytes(pairs, queries, len))
    }

    fn mul_fold_keyholder_post<C: Channel, X: AsRef<[i64]>>(
        &self,
        chan: &mut C,
        groups: &[X],
        per_query: &[usize],
        records: &[RecordId],
        ctx: &ProtocolContext,
    ) -> Result<(), SmcError> {
        dispatch!(self, b => b.mul_fold_keyholder_post(chan, groups, per_query, records, ctx))
    }

    fn mul_fold_keyholder_finish<C: Channel, X: AsRef<[i64]>>(
        &self,
        chan: &mut C,
        groups: &[X],
        per_query: &[usize],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        dispatch!(self, b => b.mul_fold_keyholder_finish(chan, groups, per_query, records, ctx, acct))
    }

    fn compare_batch_post<C: Channel>(
        &self,
        chan: &mut C,
        values: &[i64],
        ctx: &ProtocolContext,
    ) -> Result<(), SmcError> {
        dispatch!(self, b => b.compare_batch_post(chan, values, ctx))
    }

    fn compare_batch_finish<C: Channel>(
        &self,
        chan: &mut C,
        values: &[i64],
        op: CmpOp,
        domain: &ComparisonDomain,
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<bool>, SmcError> {
        dispatch!(self, b => b.compare_batch_finish(chan, values, op, domain, ctx, acct))
    }
}

/// Clamps a configured (possibly `BigUint`-sized) mask bound to the
/// sharing backend's safe range. Zero-sum and output-share masks only
/// shift shares, never outcomes, so clamping is invisible to results.
pub fn clamp_sharing_bound(bound: &BigUint) -> u64 {
    bound.to_u64().unwrap_or(u64::MAX).min(MAX_SHARING_MASK)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_tags_roundtrip() {
        for kind in [BackendKind::Paillier, BackendKind::Sharing] {
            assert_eq!(BackendKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(BackendKind::from_tag(9), None);
        assert_eq!(BackendKind::default(), BackendKind::Paillier);
        assert_eq!(BackendKind::Sharing.name(), "sharing");
    }

    #[test]
    fn clamp_caps_wide_bounds() {
        assert_eq!(clamp_sharing_bound(&BigUint::from_u64(100)), 100);
        let wide = BigUint::from_u64(u64::MAX);
        assert_eq!(clamp_sharing_bound(&(&wide * &wide)), MAX_SHARING_MASK);
    }

    /// The seam's figures are the bytes the wire carries: one real batched
    /// exchange of 1,000 folds over five queries — one served nothing, one a
    /// single pair — and their comparisons, through the split halves a
    /// resolve window uses, against what each side's channel counted as
    /// sent. A codec change that grew a frame would otherwise leave the
    /// window sized for the old bytes.
    #[test]
    fn split_exchange_bytes_are_the_bytes_each_side_sends() {
        use crate::test_helpers::ctx;
        let backend = SharingBackend {
            tape: DealerTape::from_seed(27),
            batching: true,
            dot_mask_bound: 1 << 20,
        };
        let domain = ComparisonDomain::symmetric(1 << 40);
        let per_query = [100, 0, 250, 1, 649];
        let records: Vec<RecordId> = (0..1000).collect();
        for len in [1, 2, 8] {
            let groups: Vec<Vec<i64>> = (0..1000).map(|g| vec![g % 7 - 3; len]).collect();
            let queries: Vec<Vec<i64>> = (0..5).map(|q| vec![2 - q; len]).collect();
            let (mut kchan, mut pchan) = ppds_transport::duplex();
            let sent = std::thread::scope(|scope| {
                let peer = scope.spawn(|| {
                    let (mut acct, cctx) = (SharingLedger::default(), ctx(2));
                    let cmp_ctx = cctx.narrow("cmp");
                    let values = vec![0; groups.len()];
                    backend
                        .mul_fold_queries_peer(
                            &mut pchan, &queries, &per_query, &records, &cctx, &mut acct,
                        )
                        .unwrap();
                    backend
                        .compare_batch_post(&mut pchan, &values, &cmp_ctx)
                        .unwrap();
                    backend
                        .compare_batch_finish(
                            &mut pchan,
                            &values,
                            CmpOp::Leq,
                            &domain,
                            &cmp_ctx,
                            &mut acct,
                        )
                        .unwrap();
                    pchan.metrics().bytes_sent
                });
                let (mut acct, cctx) = (SharingLedger::default(), ctx(1));
                backend
                    .mul_fold_keyholder_post(&mut kchan, &groups, &per_query, &records, &cctx)
                    .unwrap();
                let inner = backend
                    .mul_fold_keyholder_finish(
                        &mut kchan, &groups, &per_query, &records, &cctx, &mut acct,
                    )
                    .unwrap();
                let cmp_ctx = cctx.narrow("cmp");
                backend
                    .compare_batch(
                        &mut kchan,
                        Party::Bob,
                        &inner,
                        CmpOp::Leq,
                        &domain,
                        &cmp_ctx,
                        &mut acct,
                    )
                    .unwrap();
                (kchan.metrics().bytes_sent, peer.join().unwrap())
            });
            let (keyholder, peer) = backend.split_exchange_bytes(1000, 4, len).unwrap();
            assert_eq!(sent, (keyholder as u64, peer as u64), "len {len}");
        }
        let unbatched = SharingBackend {
            batching: false,
            ..backend
        };
        assert_eq!(unbatched.split_exchange_bytes(1000, 4, 2), None);
    }

    /// A fold over zero groups — which every resolve chunk of a vertical
    /// session asks for — is free on both substrates in both framings: no
    /// frame, no ledger entry, no `mul_batch` span. The peer's end is gone,
    /// so a call that touched the wire would fail rather than hang.
    #[test]
    fn a_fold_over_zero_groups_touches_no_wire_and_opens_no_span() {
        use crate::test_helpers::{ctx, paillier_backend};
        use ppds_observe::{trace, SpanRecorder, TraceSink};
        use ppds_transport::MetricsSnapshot;
        use std::sync::Arc;
        for batching in [false, true] {
            let sharing = SharingBackend {
                tape: DealerTape::from_seed(5),
                batching,
                dot_mask_bound: 1 << 20,
            };
            let backends = [
                AnyBackend::Paillier(paillier_backend(Comparator::Ideal, batching)),
                AnyBackend::Sharing(sharing),
            ];
            for backend in backends {
                let recorder = SpanRecorder::with_capacity(16);
                let _guard = trace::install(recorder.clone() as Arc<dyn TraceSink>);
                let (mut chan, peer) = ppds_transport::duplex();
                drop(peer);
                let mut acct = SharingLedger::default();
                let products = backend
                    .mul_fold_keyholder(&mut chan, &[], &[], &ctx(1), &mut acct)
                    .unwrap();
                assert!(products.is_empty());
                backend
                    .mul_fold_peer(&mut chan, &[], &[], &ctx(1), &mut acct)
                    .unwrap();
                assert_eq!(chan.metrics(), MetricsSnapshot::default());
                assert_eq!(acct, SharingLedger::default());
                assert!(recorder.is_empty(), "batching {batching}: a span opened");
            }
        }
    }
}
