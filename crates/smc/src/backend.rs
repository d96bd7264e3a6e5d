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
    sample_mask_i64, sharing_compare, sharing_dot_querier, sharing_dot_responder,
    sharing_fold_keyholder, sharing_fold_peer, DealerTape, Fe, SharingLedger, MAX_SHARING_MASK,
};
use ppds_bigint::{BigInt, BigUint};
use ppds_paillier::{Keypair, PublicKey};
use ppds_transport::wire::WireEncode;
use ppds_transport::Channel;
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

    /// Key-holding side of the multiplication fold: for each group `g`
    /// (scoped by `records[g]` under `ctx`), learns the exact inner
    /// product `⟨groups[g], peer_group[g]⟩` (the per-element masks of the
    /// Paillier path are zero-sum, so its folded sum is the same exact
    /// value).
    fn mul_fold_keyholder<C: Channel>(
        &self,
        chan: &mut C,
        groups: &[Vec<i64>],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError>;

    /// Peer side of [`SmcBackend::mul_fold_keyholder`].
    fn mul_fold_peer<C: Channel>(
        &self,
        chan: &mut C,
        groups: &[Vec<i64>],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<(), SmcError>;
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
                    compare_bob(
                        comparator, chan, alice_pk, values, op, domain, packed, scopes,
                    )
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

    fn mul_fold_keyholder<C: Channel>(
        &self,
        chan: &mut C,
        groups: &[Vec<i64>],
        records: &[RecordId],
        ctx: &ProtocolContext,
        _acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        assert_eq!(groups.len(), records.len(), "one record scope per group");
        let mul_ctx = ctx.narrow("mul");
        let xs_groups: Vec<Vec<BigInt>> = groups.iter().map(|g| bigints(g)).collect();
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

    fn mul_fold_peer<C: Channel>(
        &self,
        chan: &mut C,
        groups: &[Vec<i64>],
        records: &[RecordId],
        ctx: &ProtocolContext,
        _acct: &mut SharingLedger,
    ) -> Result<(), SmcError> {
        assert_eq!(groups.len(), records.len(), "one record scope per group");
        let mask_ctx = ctx.narrow("mask");
        let mul_ctx = ctx.narrow("mul");
        let ys_groups: Vec<Vec<BigInt>> = groups.iter().map(|g| bigints(g)).collect();
        framed(self.batching, groups.len(), |at| {
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

    fn mul_fold_keyholder<C: Channel>(
        &self,
        chan: &mut C,
        groups: &[Vec<i64>],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        assert_eq!(groups.len(), records.len(), "one record scope per group");
        let mul_ctx = ctx.narrow("mul");
        let group_fes: Vec<Vec<Fe>> = groups.iter().map(|g| fes(g)).collect();
        framed(self.batching, groups.len(), |at| {
            let (groups, scopes) = (&group_fes[at.clone()], |g| {
                mul_ctx.at(records[at.start + g])
            });
            let us = sharing_fold_keyholder(&self.tape, chan, groups, scopes, acct)?;
            Ok(us.into_iter().map(Fe::lift).collect())
        })
    }

    fn mul_fold_peer<C: Channel>(
        &self,
        chan: &mut C,
        groups: &[Vec<i64>],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<(), SmcError> {
        assert_eq!(groups.len(), records.len(), "one record scope per group");
        let mul_ctx = ctx.narrow("mul");
        let group_fes: Vec<Vec<Fe>> = groups.iter().map(|g| fes(g)).collect();
        framed(self.batching, groups.len(), |at| {
            let (groups, scopes) = (&group_fes[at.clone()], |g| {
                mul_ctx.at(records[at.start + g])
            });
            sharing_fold_peer(&self.tape, chan, groups, scopes, acct).map(|()| Vec::<()>::new())
        })
        .map(drop)
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

    fn mul_fold_keyholder<C: Channel>(
        &self,
        chan: &mut C,
        groups: &[Vec<i64>],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<Vec<i64>, SmcError> {
        dispatch!(self, b => b.mul_fold_keyholder(chan, groups, records, ctx, acct))
    }

    fn mul_fold_peer<C: Channel>(
        &self,
        chan: &mut C,
        groups: &[Vec<i64>],
        records: &[RecordId],
        ctx: &ProtocolContext,
        acct: &mut SharingLedger,
    ) -> Result<(), SmcError> {
        dispatch!(self, b => b.mul_fold_peer(chan, groups, records, ctx, acct))
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
}
