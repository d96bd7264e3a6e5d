//! Additive secret sharing over `Z_2^64` — the field-element MPC backend.
//!
//! Every hot number the Paillier backend ships is a 512–2048-bit
//! ciphertext; this module replaces them with 8-byte ring elements. It
//! implements the three SMC workhorses over additive shares in the ring
//! `Z_2^64` (wrapping `u64` arithmetic):
//!
//! * [`sharing_fold_keyholder`] / [`sharing_fold_peer`] — query-shaped
//!   Beaver inner-product folds (the `mul_batches` substitute): the
//!   keyholder holds one `x_i` per pair, the peer one `y_q` per query, and
//!   the keyholder learns every `⟨x_i, y_q⟩` from one masked `x_i` a pair
//!   and one masked `y_q` a query — a matrix triple per query, where the
//!   paper's recipe runs one Multiplication Protocol per pair,
//! * [`sharing_dot_querier`] / [`sharing_dot_responder`] — the one-round
//!   matrix-triple dot product (cf. the CHIKP/SecureML exemplars in
//!   SNIPPETS.md): one masked query vector `D = x − α` amortizes over
//!   every responder row, so a whole neighborhood's squared distances
//!   cost one exchange,
//! * [`sharing_compare`] — comparison (and share comparison) by masked
//!   opening of the share difference, with the real
//!   shared-bit-decomposition cost modeled in the [`SharingLedger`].
//!
//! # Field choice
//!
//! The ring `Z_2^64` rather than a prime field: the Beaver and dot-product
//! identities use only ring operations (no inversions), wrapping `u64`
//! arithmetic is free on hardware, and the signed embedding
//! `i64 → u64` ([`Fe::embed`] / [`Fe::lift`]) is exact for all inputs —
//! sums and differences telescope mod `2^64`, so share arithmetic never
//! overflows even where the plaintext `i64` computation would. All
//! protocol values in this workspace are bounded well inside `±2^62`
//! (coordinates, squared distances, and masks are validated or clamped),
//! so the centered lift of any opened value is exact.
//!
//! # Correlated randomness: the emulated dealer
//!
//! Beaver triples and opening masks come from a [`DealerTape`]: at session
//! establishment both parties exchange one `u64` contribution and XOR them
//! into a shared tape seed. Every correlation is then *derived*, not
//! shipped — `ctx.rekey(tape_seed)` re-bases the caller's keyed-randomness
//! path ([`crate::context::ProtocolContext`], PR 4) onto the shared seed,
//! so both parties at the same protocol position derive identical
//! correlations in any execution order, and a record consumes the same
//! tape values whichever slice it is shipped in.
//!
//! This is the *fake-offline* benchmarking idiom (MP-SPDZ's insecure
//! preprocessing): the online transcript — every byte, message, and round
//! this backend puts on the wire — is exactly what a real
//! trusted-dealer-model execution ships, while the offline phase that
//! would normally deliver the correlations (via OT or HE) is emulated
//! from the shared seed and therefore **not private**. The substitution
//! is the same measurement discipline as
//! [`crate::compare::Comparator::Ideal`] (DESIGN.md §3): costs are
//! faithful and ledgered, the privacy argument defers to the standard
//! protocol whose correlations the [`SharingLedger`] counts. Likewise
//! `share_less_than` opens the masked share difference instead of running
//! shared-bit decomposition; the ledger records the bit triples and bytes
//! the real comparison would consume (see [`SharingLedger::record_compare`]).

use crate::compare::{CmpOp, ComparisonDomain};
use crate::context::ProtocolContext;
use crate::error::SmcError;
use crate::leakage::Party;
use crate::{recv_run, send_run};
use ppds_observe::trace;
use ppds_transport::{Channel, Reader, TransportError, WireDecode, WireEncode};
use rand::rngs::StdRng;
use rand::{Rng, RngCore};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Range, Sub};

/// Version tag of the sharing-backend discipline, stamped into benchmark
/// artifacts so a recorded run names the share representation it used.
pub const SHARING_DISCIPLINE: &str = "additive-z64-v1";

/// Largest mask magnitude the sharing backend will draw, regardless of the
/// configured Paillier mask bound: keeps every driver-side `i64` sum
/// (`eps² + share`, share differences) comfortably inside `±2^62`.
pub const MAX_SHARING_MASK: u64 = 1 << 60;

// ---------------------------------------------------------------------------
// Field elements
// ---------------------------------------------------------------------------

/// One element of `Z_2^64`. All arithmetic wraps mod `2^64`; the signed
/// embedding is the bijection `i64 ↔ u64` by bit reinterpretation, so
/// [`Fe::lift`]`(`[`Fe::embed`]`(v)) == v` for every `i64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Fe(pub u64);

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe(0);

    /// Embeds a signed value into the ring (two's-complement
    /// reinterpretation).
    #[inline]
    pub fn embed(v: i64) -> Fe {
        Fe(v as u64)
    }

    /// Centered lift back to a signed value: exact whenever the true value
    /// lies in `[-2^63, 2^63)`, which every protocol value here does.
    #[inline]
    pub fn lift(self) -> i64 {
        self.0 as i64
    }

    /// A uniform ring element.
    #[inline]
    pub fn random<R: RngCore + ?Sized>(rng: &mut R) -> Fe {
        Fe(rng.next_u64())
    }
}

impl From<i64> for Fe {
    #[inline]
    fn from(v: i64) -> Fe {
        Fe::embed(v)
    }
}

impl Add for Fe {
    type Output = Fe;
    #[inline]
    fn add(self, rhs: Fe) -> Fe {
        Fe(self.0.wrapping_add(rhs.0))
    }
}

impl AddAssign for Fe {
    #[inline]
    fn add_assign(&mut self, rhs: Fe) {
        self.0 = self.0.wrapping_add(rhs.0);
    }
}

impl Sub for Fe {
    type Output = Fe;
    #[inline]
    fn sub(self, rhs: Fe) -> Fe {
        Fe(self.0.wrapping_sub(rhs.0))
    }
}

impl Mul for Fe {
    type Output = Fe;
    #[inline]
    fn mul(self, rhs: Fe) -> Fe {
        Fe(self.0.wrapping_mul(rhs.0))
    }
}

impl Neg for Fe {
    type Output = Fe;
    #[inline]
    fn neg(self) -> Fe {
        Fe(self.0.wrapping_neg())
    }
}

impl Sum for Fe {
    fn sum<I: Iterator<Item = Fe>>(iter: I) -> Fe {
        iter.fold(Fe::ZERO, |acc, v| acc + v)
    }
}

impl WireEncode for Fe {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl WireDecode for Fe {
    fn decode(reader: &mut Reader<'_>) -> Result<Self, TransportError> {
        Ok(Fe(u64::decode(reader)?))
    }
}

/// Ring inner product.
#[inline]
pub fn fe_dot(a: &[Fe], b: &[Fe]) -> Fe {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

fn draw_fes<R: RngCore>(rng: &mut R, n: usize) -> Vec<Fe> {
    (0..n).map(|_| Fe::random(rng)).collect()
}

/// Uniform signed mask in `[-bound, bound]` from a keyed stream — the
/// sharing analogue of `multiplication::sample_mask` for `i64`-sized
/// bounds. Callers clamp `bound` to [`MAX_SHARING_MASK`] first.
pub fn sample_mask_i64<R: Rng>(mut rng: R, bound: u64) -> i64 {
    if bound == 0 {
        return 0;
    }
    let b = bound.min(MAX_SHARING_MASK) as i64;
    rng.random_range(-b..=b)
}

// ---------------------------------------------------------------------------
// The emulated dealer
// ---------------------------------------------------------------------------

/// The shared correlated-randomness tape: a seed both parties combine at
/// session establishment, from which every Beaver triple and opening mask
/// is derived (see the module docs' fake-offline discussion).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DealerTape {
    seed: u64,
}

impl DealerTape {
    /// One party's seed contribution, drawn from its session randomness.
    /// Both parties exchange these during the handshake and combine them
    /// with [`DealerTape::from_contributions`].
    pub fn contribution(ctx: &ProtocolContext) -> u64 {
        ctx.narrow("dealer").rng().next_u64()
    }

    /// Combines the two contributions; XOR, so the result is independent
    /// of which side contributed which value.
    pub fn from_contributions(mine: u64, theirs: u64) -> DealerTape {
        DealerTape {
            seed: mine ^ theirs,
        }
    }

    /// A tape with an explicit seed (tests and benchmarks).
    pub fn from_seed(seed: u64) -> DealerTape {
        DealerTape { seed }
    }

    /// Re-bases a protocol scope onto the shared tape seed: both parties
    /// at the same `narrow`/`at` position derive identical streams.
    fn scope(&self, ctx: &ProtocolContext) -> ProtocolContext {
        ctx.rekey(self.seed).narrow("tape")
    }
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

/// Per-party account of the sharing backend's trust substitutions, the
/// companion of `YaoLedger`: what the emulated dealer handed out, what was
/// opened on the wire, and the modeled cost of the real bit-decomposition
/// comparisons the masked openings stand in for. Under the Paillier
/// backend every field stays zero, which is itself part of the audit — a
/// run's ledger says exactly which trust model produced it.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SharingLedger {
    /// Secure comparisons evaluated by masked opening.
    pub compares: u64,
    /// Scalar Beaver correlations consumed (one per vector element per
    /// row for matrix triples).
    pub triples: u64,
    /// Modeled bit triples the real shared-bit-decomposition comparisons
    /// would consume (`2ℓ − 2` per compare over an `ℓ`-bit domain).
    pub bit_triples: u64,
    /// Ring elements physically opened on the wire (both directions).
    pub opened_elements: u64,
    /// Modeled bytes a real offline phase would ship to deliver the
    /// consumed correlations (8 bytes per dealer-issued element, 16 per
    /// bit triple), plus the modeled online bytes of real comparisons.
    pub modeled_offline_bytes: u64,
}

impl SharingLedger {
    /// Accounts one masked-opening comparison over `domain`: the opening
    /// itself (one element each way, plus its zero-share) and the modeled
    /// real cost — `2ℓ − 2` bit triples and one masked open per bit for a
    /// comparison over an `ℓ`-bit domain (the standard post-Catrina–de
    /// Hoogh LT budget).
    pub fn record_compare(&mut self, domain: &ComparisonDomain) {
        let ell = u64::from(64 - domain.n0().leading_zeros());
        let bits = 2 * ell.max(1) - 2;
        self.compares += 1;
        self.bit_triples += bits;
        self.opened_elements += 2;
        // Dealer: one zero-share (2 elements) + the modeled bit triples.
        self.modeled_offline_bytes += 16 + 16 * bits;
    }

    /// Accounts one matrix triple: one length-`m` vector masked once against
    /// `rows` vectors masked a row each — a dot product's query and the rows
    /// served it, or a fold query's peer vector and the keyholder vectors it
    /// is served. The dealer issues the shared mask (m), a mask per row
    /// (`rows·m`) and both halves of each row's `c` (`2·rows`); the online
    /// phase opens the shared vector once (m) and, per row, its masked
    /// vector and its `s` (`rows·(m + 1)`).
    pub fn record_matrix_triple(&mut self, m: usize, rows: usize) {
        let (m, rows) = (m as u64, rows as u64);
        self.triples += m * rows;
        self.opened_elements += m + rows * (m + 1);
        self.modeled_offline_bytes += 8 * (m + rows * m + 2 * rows);
    }

    /// Folds another ledger into this one (session aggregation).
    pub fn absorb(&mut self, other: SharingLedger) {
        self.compares += other.compares;
        self.triples += other.triples;
        self.bit_triples += other.bit_triples;
        self.opened_elements += other.opened_elements;
        self.modeled_offline_bytes += other.modeled_offline_bytes;
    }
}

// ---------------------------------------------------------------------------
// Masked opening
// ---------------------------------------------------------------------------

fn open_mask(tape: &DealerTape, ctx: &ProtocolContext) -> Fe {
    Fe::random(&mut tape.scope(ctx).narrow("open").rng())
}

/// Runs `run` inside a span named `label`.
fn in_span<C: Channel, T>(
    label: &str,
    chan: &mut C,
    run: impl FnOnce(&mut C) -> Result<T, SmcError>,
) -> Result<T, SmcError> {
    let span = trace::span(label, || chan.metrics());
    let out = run(chan)?;
    span.end(|| chan.metrics());
    Ok(out)
}

/// This party's half of a masked open of `alice[i] − bob[i]`: every share
/// travels under a tape-derived zero-share — Alice ships `a_i + ρ_i`, Bob
/// `−b_i − ρ_i`, `ρ_i` from `scopes(i)`.
fn open_shares<S>(
    tape: &DealerTape,
    role: Party,
    values: impl Iterator<Item = Fe>,
    scopes: S,
) -> Vec<Fe>
where
    S: Fn(usize) -> ProtocolContext,
{
    values
        .enumerate()
        .map(|(i, value)| {
            let rho = open_mask(tape, &scopes(i));
            match role {
                Party::Alice => value + rho,
                Party::Bob => -value - rho,
            }
        })
        .collect()
}

/// The one receive of a masked open: takes the peer's half, held to the
/// arity of `mine`, ships Bob's half after it, and returns the opened
/// differences.
fn close_open<C: Channel>(
    chan: &mut C,
    role: Party,
    mut mine: Vec<Fe>,
) -> Result<Vec<Fe>, SmcError> {
    let theirs: Vec<Fe> = chan.recv_batch()?;
    if theirs.len() != mine.len() {
        return Err(SmcError::protocol(format!(
            "masked open: expected {} shares, got {}",
            mine.len(),
            theirs.len()
        )));
    }
    if role == Party::Bob {
        chan.send_batch(&mine)?;
    }
    for (mine, theirs) in mine.iter_mut().zip(theirs) {
        *mine += theirs;
    }
    Ok(mine)
}

/// Opens `alice[i] − bob[i]` for a run of values each party holds one
/// operand of ([`open_shares`]), one frame each way for the whole run;
/// Alice sends first.
fn open_differences<C, S>(
    tape: &DealerTape,
    chan: &mut C,
    role: Party,
    values: impl Iterator<Item = Fe>,
    scopes: S,
) -> Result<Vec<Fe>, SmcError>
where
    C: Channel,
    S: Fn(usize) -> ProtocolContext,
{
    let mine = open_shares(tape, role, values, scopes);
    if role == Party::Alice {
        chan.send_batch(&mine)?;
    }
    close_open(chan, role, mine)
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// One side of a slice of sharing-backend comparisons; returns
/// `alice_operands[i] OP bob_operands[i]` per item, by masked opening of
/// their difference — one frame each way for the whole slice, an empty
/// slice none. A plain comparison passes its embedded value, a share
/// comparison (§5) its *in-field* share difference `u_a − u_b` (Bob:
/// `v_a − v_b`), which never overflows whatever the mask width; operands
/// arrive as an iterator so that neither needs a vector of its own. Works
/// over the full 64-bit ring — `domain` only sizes the modeled
/// bit-decomposition cost in the ledger, unlike the Paillier path which
/// must encode into `[1, n0]`. Item `i` consumes the tape at `scopes(i)`.
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub fn sharing_compare<C, S>(
    tape: &DealerTape,
    chan: &mut C,
    role: Party,
    operands: impl ExactSizeIterator<Item = Fe>,
    op: CmpOp,
    domain: &ComparisonDomain,
    scopes: S,
    acct: &mut SharingLedger,
) -> Result<Vec<bool>, SmcError>
where
    C: Channel,
    S: Fn(usize) -> ProtocolContext,
{
    if operands.len() == 0 {
        return Ok(Vec::new());
    }
    in_span("cmp_batch", chan, |chan| {
        for _ in 0..operands.len() {
            acct.record_compare(domain);
        }
        let opened = open_differences(tape, chan, role, operands, scopes)?;
        Ok(verdicts(opened, op))
    })
}

fn verdicts(opened: Vec<Fe>, op: CmpOp) -> Vec<bool> {
    opened
        .into_iter()
        .map(|v| match op {
            CmpOp::Lt => v.lift() < 0,
            CmpOp::Leq => v.lift() <= 0,
        })
        .collect()
}

/// Alice's first half of [`sharing_compare`]: ships her masked operands,
/// which need nothing from Bob, and returns without waiting for his. Her
/// [`sharing_compare_finish`] over the same operands and scopes completes
/// the slice; the caller may run other exchanges in between.
pub(crate) fn sharing_compare_post<C, S>(
    tape: &DealerTape,
    chan: &mut C,
    operands: impl ExactSizeIterator<Item = Fe>,
    scopes: S,
) -> Result<(), SmcError>
where
    C: Channel,
    S: Fn(usize) -> ProtocolContext,
{
    if operands.len() == 0 {
        return Ok(());
    }
    in_span("cmp_batch", chan, |chan| {
        let mine = open_shares(tape, Party::Alice, operands, scopes);
        Ok(chan.send_batch(&mine)?)
    })
}

/// Alice's second half of [`sharing_compare`]: reads Bob's shares and
/// returns the verdicts. Her own shares are re-derived from the operands
/// and the tape rather than kept since [`sharing_compare_post`].
#[allow(clippy::too_many_arguments)] // mirrors the protocol's parameter list
pub(crate) fn sharing_compare_finish<C, S>(
    tape: &DealerTape,
    chan: &mut C,
    operands: impl ExactSizeIterator<Item = Fe>,
    op: CmpOp,
    domain: &ComparisonDomain,
    scopes: S,
    acct: &mut SharingLedger,
) -> Result<Vec<bool>, SmcError>
where
    C: Channel,
    S: Fn(usize) -> ProtocolContext,
{
    if operands.len() == 0 {
        return Ok(Vec::new());
    }
    in_span("cmp_batch", chan, |chan| {
        for _ in 0..operands.len() {
            acct.record_compare(domain);
        }
        let mine = open_shares(tape, Party::Alice, operands, scopes);
        Ok(verdicts(close_open(chan, Party::Alice, mine)?, op))
    })
}

// ---------------------------------------------------------------------------
// Query-shaped Beaver inner-product folds (the mul_batches substitute)
// ---------------------------------------------------------------------------
//
// A slice of folds is a run of queries: query `q` is the peer's one vector
// `y_q`, served `per_query[q]` keyholder vectors `x_i` (pairs in query
// order). Pair `i` of query `q` consumes a matrix Beaver triple — `α_i` and
// `c₁_i` at the pair's scope, `β_q` once a query at the scope of its first
// pair, and `c₂_i = ⟨α_i, β_q⟩ − c₁_i` — so the querier's masked vector
// `E_q = y_q − β_q` travels once a query, not once a pair (DESIGN.md §14).

/// A pair's triple lives at `scope.narrow("fold")` on the tape; each side
/// draws its half where it is used.
fn fold_tape(tape: &DealerTape, ctx: &ProtocolContext) -> ProtocolContext {
    tape.scope(ctx).narrow("fold")
}

/// The stream pair `t`'s `α` is drawn from, one element at a time.
fn fold_alpha(t: &ProtocolContext) -> StdRng {
    t.narrow("a").rng()
}

fn fold_c1(t: &ProtocolContext) -> Fe {
    Fe::random(&mut t.narrow("c").rng())
}

/// `β_q` for the query whose first pair is scoped `first`.
fn fold_beta(tape: &DealerTape, first: &ProtocolContext, m: usize) -> Vec<Fe> {
    draw_fes(&mut fold_tape(tape, first).narrow("b").rng(), m)
}

/// Each query served at least one pair, with the range of its pairs; a
/// query served nothing has no triple and costs no element.
fn served_queries(per_query: &[usize]) -> impl Iterator<Item = (usize, Range<usize>)> + '_ {
    let mut first = 0;
    per_query
        .iter()
        .enumerate()
        .map(move |(q, &count)| {
            first += count;
            (q, first - count..first)
        })
        .filter(|(_, range)| !range.is_empty())
}

fn embedded<T: Copy + Into<Fe>>(values: &[T]) -> impl Iterator<Item = Fe> + '_ {
    values.iter().map(|&v| v.into())
}

/// The keyholder's masked vectors `D_i = x_i − α_i`, every pair's back to
/// back, as one frame.
fn send_fold_masked<C, X, T, S>(
    tape: &DealerTape,
    chan: &mut C,
    xs: &[X],
    scopes: &S,
) -> Result<(), SmcError>
where
    C: Channel,
    X: AsRef<[T]>,
    T: Copy + Into<Fe>,
    S: Fn(usize) -> ProtocolContext,
{
    let mut ds = Vec::with_capacity(xs.iter().map(|x| x.as_ref().len()).sum());
    for (i, x) in xs.iter().enumerate() {
        let mut alpha = fold_alpha(&fold_tape(tape, &scopes(i)));
        ds.extend(embedded(x.as_ref()).map(|x| x - Fe::random(&mut alpha)));
    }
    send_run(chan, &ds, xs.len())
}

/// The keyholder's one receive: per query `E_q` and then one `s_i` a pair,
/// held to the length both sides derive, folded into
/// `c₁_i + ⟨x_i, E_q⟩ + s_i = ⟨x_i, y_q⟩`.
fn read_fold_replies<C, X, T, S>(
    tape: &DealerTape,
    chan: &mut C,
    xs: &[X],
    per_query: &[usize],
    scopes: &S,
    acct: &mut SharingLedger,
) -> Result<Vec<Fe>, SmcError>
where
    C: Channel,
    X: AsRef<[T]>,
    T: Copy + Into<Fe>,
    S: Fn(usize) -> ProtocolContext,
{
    let pairs: usize = per_query.iter().sum();
    assert_eq!(pairs, xs.len(), "every pair belongs to one query");
    let dim = |range: &Range<usize>| xs[range.start].as_ref().len();
    let (queries, widths) = served_queries(per_query).fold((0, 0), |(n, width), (_, range)| {
        (n + 1, width + dim(&range))
    });
    let expected = widths + xs.len();
    let reply = recv_run(chan, pairs)?;
    if reply.len() != expected {
        return Err(SmcError::protocol(format!(
            "fold: expected {expected} reply elements for {queries} queries and {pairs} pairs, got {}",
            reply.len()
        )));
    }
    let mut out = Vec::with_capacity(xs.len());
    let mut rest = &reply[..];
    for (_, range) in served_queries(per_query) {
        let (m, count) = (dim(&range), range.len());
        let (e, tail) = rest.split_at(m);
        let (s, tail) = tail.split_at(count);
        rest = tail;
        for (i, &s) in range.zip(s) {
            let x = xs[i].as_ref();
            debug_assert_eq!(x.len(), m, "a query's pairs share its length");
            let folded: Fe = embedded(x).zip(e).map(|(x, &e)| x * e).sum();
            out.push(fold_c1(&fold_tape(tape, &scopes(i))) + folded + s);
        }
        acct.record_matrix_triple(m, count);
    }
    Ok(out)
}

/// Keyholder side of a slice of query-shaped Beaver inner-product folds:
/// holds one `xs[i]` per pair, the first `per_query[0]` pairs query 0's and
/// so on, and learns `⟨xs[i], y_q⟩` exactly (the Paillier path's per-element
/// masks are zero-sum, so its folded result is the same exact inner product
/// — this leaks nothing the paper's Multiplication Protocol composition
/// doesn't). Every pair's `D` ships in one frame and every reply returns in
/// one; an empty slice touches no wire. Pair `i` consumes the tape at
/// `scopes(i)`, and a query's `β` at its first pair's scope, so the
/// correlations a pair uses do not depend on the slice it is shipped in.
pub fn sharing_fold_keyholder<C, X, T, S>(
    tape: &DealerTape,
    chan: &mut C,
    xs: &[X],
    per_query: &[usize],
    scopes: S,
    acct: &mut SharingLedger,
) -> Result<Vec<Fe>, SmcError>
where
    C: Channel,
    X: AsRef<[T]>,
    T: Copy + Into<Fe>,
    S: Fn(usize) -> ProtocolContext,
{
    if xs.is_empty() {
        return Ok(Vec::new());
    }
    in_span("mul_batch", chan, |chan| {
        send_fold_masked(tape, chan, xs, &scopes)?;
        read_fold_replies(tape, chan, xs, per_query, &scopes, acct)
    })
}

/// The keyholder's first half of [`sharing_fold_keyholder`]: ships the
/// masked vectors, which need nothing from the peer, and returns without
/// waiting for the replies. [`sharing_fold_keyholder_finish`] over the same
/// pairs and scopes completes the slice; the caller may run other
/// exchanges in between.
pub(crate) fn sharing_fold_keyholder_post<C, X, T, S>(
    tape: &DealerTape,
    chan: &mut C,
    xs: &[X],
    scopes: S,
) -> Result<(), SmcError>
where
    C: Channel,
    X: AsRef<[T]>,
    T: Copy + Into<Fe>,
    S: Fn(usize) -> ProtocolContext,
{
    if xs.is_empty() {
        return Ok(());
    }
    in_span("mul_batch", chan, |chan| {
        send_fold_masked(tape, chan, xs, &scopes)
    })
}

/// The keyholder's second half of [`sharing_fold_keyholder`]: reads the
/// replies and returns the inner products.
pub(crate) fn sharing_fold_keyholder_finish<C, X, T, S>(
    tape: &DealerTape,
    chan: &mut C,
    xs: &[X],
    per_query: &[usize],
    scopes: S,
    acct: &mut SharingLedger,
) -> Result<Vec<Fe>, SmcError>
where
    C: Channel,
    X: AsRef<[T]>,
    T: Copy + Into<Fe>,
    S: Fn(usize) -> ProtocolContext,
{
    if xs.is_empty() {
        return Ok(Vec::new());
    }
    in_span("mul_batch", chan, |chan| {
        read_fold_replies(tape, chan, xs, per_query, &scopes, acct)
    })
}

/// Peer half of [`sharing_fold_keyholder`]: holds one `ys[q]` per query,
/// served `per_query[q]` pairs, and contributes no net mask (the fold's
/// masks cancel by construction on both backends). Reads every pair's `D`
/// and answers, per query served anything, `E_q = y_q − β_q` and then
/// `s_i = ⟨D_i, β_q⟩ + c₂_i` a pair.
pub fn sharing_fold_peer<C, Y, T, S>(
    tape: &DealerTape,
    chan: &mut C,
    ys: &[Y],
    per_query: &[usize],
    scopes: S,
    acct: &mut SharingLedger,
) -> Result<(), SmcError>
where
    C: Channel,
    Y: AsRef<[T]>,
    T: Copy + Into<Fe>,
    S: Fn(usize) -> ProtocolContext,
{
    assert_eq!(ys.len(), per_query.len(), "one vector per query");
    let pairs: usize = per_query.iter().sum();
    if pairs == 0 {
        return Ok(());
    }
    let span = trace::span("mul_batch", || chan.metrics());
    let dims = || ys.iter().map(|y| y.as_ref().len());
    let expected: usize = dims().zip(per_query).map(|(m, &count)| m * count).sum();
    let ds: Vec<Fe> = recv_run(chan, pairs)?;
    if ds.len() != expected {
        return Err(SmcError::protocol(format!(
            "fold: expected {expected} masked elements for {pairs} pairs, got {}",
            ds.len()
        )));
    }
    let mut reply = Vec::with_capacity(dims().sum::<usize>() + pairs);
    let mut ds = ds.into_iter();
    for (q, range) in served_queries(per_query) {
        let y = ys[q].as_ref();
        let beta = fold_beta(tape, &scopes(range.start), y.len());
        reply.extend(embedded(y).zip(&beta).map(|(y, &b)| y - b));
        for i in range.clone() {
            // `⟨D_i + α_i, β_q⟩ − c₁_i` is `⟨D_i, β_q⟩ + c₂_i`.
            let t = fold_tape(tape, &scopes(i));
            let mut alpha = fold_alpha(&t);
            let d = ds.by_ref().take(y.len());
            let s: Fe = d
                .zip(&beta)
                .map(|(d, &b)| (d + Fe::random(&mut alpha)) * b)
                .sum();
            reply.push(s - fold_c1(&t));
        }
        acct.record_matrix_triple(y.len(), range.len());
    }
    send_run(chan, &reply, pairs)?;
    span.end(|| chan.metrics());
    Ok(())
}

// ---------------------------------------------------------------------------
// One-round matrix-triple dot product (the dot_many substitute)
// ---------------------------------------------------------------------------

fn dot_alpha(tape: &DealerTape, ctx: &ProtocolContext, m: usize) -> Vec<Fe> {
    draw_fes(&mut tape.scope(ctx).narrow("dot").narrow("a").rng(), m)
}

fn dot_row(tape: &DealerTape, ctx: &ProtocolContext, j: u64, m: usize) -> Vec<Fe> {
    draw_fes(&mut tape.scope(ctx).narrow("dot").narrow("b").rng_for(j), m)
}

fn dot_c1(tape: &DealerTape, ctx: &ProtocolContext, j: u64) -> Fe {
    Fe::random(&mut tape.scope(ctx).narrow("dot").narrow("c").rng_for(j))
}

/// Querier side of the one-round matrix-triple dot products of a slice of
/// queries: holds one vector per query and learns `u_j = ⟨xs, y_j⟩ + v_j`
/// for every row `y_j` the responder serves that query, `expected_rows[q]`
/// of them (mask `v_j` is the responder's share). A query's one masked
/// vector `D = x − α` amortizes over all its rows, and all queries' vectors
/// ride one frame, all replies one — two messages a query, every element
/// 8 bytes; an empty slice touches no wire. Query `q` consumes the tape at
/// `scopes(q)` and nowhere else. Returns every query's shares, concatenated
/// in query order.
pub fn sharing_dot_querier<C, X, S>(
    tape: &DealerTape,
    chan: &mut C,
    queries: &[X],
    expected_rows: &[usize],
    scopes: S,
    acct: &mut SharingLedger,
) -> Result<Vec<Fe>, SmcError>
where
    C: Channel,
    X: AsRef<[Fe]>,
    S: Fn(usize) -> ProtocolContext,
{
    assert_eq!(
        queries.len(),
        expected_rows.len(),
        "one row count per query"
    );
    if queries.is_empty() {
        return Ok(Vec::new());
    }
    let span = trace::span("dot_many", || chan.metrics());
    let ds: Vec<Vec<Fe>> = queries
        .iter()
        .enumerate()
        .map(|(q, xs)| {
            let alpha = dot_alpha(tape, &scopes(q), xs.as_ref().len());
            xs.as_ref()
                .iter()
                .zip(&alpha)
                .map(|(&x, &a)| x - a)
                .collect()
        })
        .collect();
    chan.send_batch(&ds)?;
    let replies: Vec<Vec<(Vec<Fe>, Fe)>> = chan.recv_batch()?;
    if replies.len() != queries.len() {
        return Err(SmcError::protocol(format!(
            "dot: expected replies to {} queries, got {}",
            queries.len(),
            replies.len()
        )));
    }
    let mut out = Vec::new();
    for (q, (rows, &expected)) in replies.iter().zip(expected_rows).enumerate() {
        let (xs, ctx) = (queries[q].as_ref(), scopes(q));
        if rows.len() != expected {
            return Err(SmcError::protocol(format!(
                "dot: expected {expected} rows, got {}",
                rows.len()
            )));
        }
        for (j, (e, s)) in rows.iter().enumerate() {
            if e.len() != xs.len() {
                return Err(SmcError::protocol(format!(
                    "dot: row {j} has {} elements, expected {}",
                    e.len(),
                    xs.len()
                )));
            }
            out.push(fe_dot(xs, e) + dot_c1(tape, &ctx, j as u64) + *s);
        }
        acct.record_matrix_triple(xs.len(), rows.len());
    }
    span.end(|| chan.metrics());
    Ok(out)
}

/// Responder side of [`sharing_dot_querier`]: holds every query's rows
/// `y_j` back to back, `rows_per_query[q]` of them for query `q`, and one
/// mask `v_j` a row (its output shares; the caller draws them from its
/// private session randomness).
pub fn sharing_dot_responder<C, S>(
    tape: &DealerTape,
    chan: &mut C,
    rows: &[Vec<Fe>],
    masks: &[Fe],
    rows_per_query: &[usize],
    scopes: S,
    acct: &mut SharingLedger,
) -> Result<(), SmcError>
where
    C: Channel,
    S: Fn(usize) -> ProtocolContext,
{
    let total: usize = rows_per_query.iter().sum();
    if rows.len() != masks.len() || rows.len() != total {
        return Err(SmcError::protocol(
            "dot: rows/masks/queries length mismatch",
        ));
    }
    if rows_per_query.is_empty() {
        return Ok(());
    }
    let span = trace::span("dot_many", || chan.metrics());
    let ds: Vec<Vec<Fe>> = chan.recv_batch()?;
    if ds.len() != rows_per_query.len() {
        return Err(SmcError::protocol(format!(
            "dot: expected {} queries, got {}",
            rows_per_query.len(),
            ds.len()
        )));
    }
    let mut replies = Vec::with_capacity(ds.len());
    let mut first = 0;
    for (q, (d, &count)) in ds.iter().zip(rows_per_query).enumerate() {
        let (m, ctx) = (d.len(), scopes(q));
        let alpha = dot_alpha(tape, &ctx, m);
        let mut reply = Vec::with_capacity(count);
        let mine = rows[first..first + count].iter().zip(&masks[first..]);
        for (j, (row, &mask)) in mine.enumerate() {
            if row.len() != m {
                return Err(SmcError::protocol(format!(
                    "dot: row {j} has {} elements, query has {m}",
                    row.len()
                )));
            }
            let b = dot_row(tape, &ctx, j as u64, m);
            let e: Vec<Fe> = row.iter().zip(&b).map(|(&y, &bb)| y - bb).collect();
            let c2 = fe_dot(&alpha, &b) - dot_c1(tape, &ctx, j as u64);
            reply.push((e, fe_dot(d, &b) + c2 + mask));
        }
        replies.push(reply);
        acct.record_matrix_triple(m, count);
        first += count;
    }
    chan.send_batch(&replies)?;
    span.end(|| chan.metrics());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_helpers::ctx;
    use ppds_transport::duplex;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn embed_lift_roundtrip() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 12345, -98765] {
            assert_eq!(Fe::embed(v).lift(), v);
        }
    }

    #[test]
    fn field_arithmetic_telescopes() {
        // In-field differences of embedded values are exact even when the
        // i64 difference would overflow.
        let a = Fe::embed(i64::MAX - 3);
        let b = Fe::embed(-10);
        assert_eq!((a - b) - a + b, Fe::ZERO);
        let mut acc = Fe::ZERO;
        acc += Fe::embed(-7);
        assert_eq!((-acc).lift(), 7);
    }

    #[test]
    fn fe_wire_roundtrip() {
        for v in [Fe(0), Fe(u64::MAX), Fe::embed(-5)] {
            let bytes = v.encode_to_vec();
            assert_eq!(bytes.len(), 8);
            assert_eq!(Fe::decode_exact(&bytes).unwrap(), v);
        }
    }

    #[test]
    fn tape_contributions_commute() {
        let a = DealerTape::from_contributions(3, 9);
        let b = DealerTape::from_contributions(9, 3);
        assert_eq!(a, b);
        // Both parties derive identical correlations at equal positions.
        let ctx_a = ctx(111).narrow("mul").at(4);
        let ctx_b = ctx(222).narrow("mul").at(4);
        assert_eq!(dot_alpha(&a, &ctx_a, 5), dot_alpha(&b, &ctx_b, 5));
        assert_eq!(open_mask(&a, &ctx_a), open_mask(&b, &ctx_b));
    }

    #[test]
    fn sample_mask_respects_bound_and_clamp() {
        let mut r = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let v = sample_mask_i64(&mut r, 17);
            assert!((-17..=17).contains(&v));
        }
        assert_eq!(sample_mask_i64(&mut r, 0), 0);
        let wide = sample_mask_i64(&mut r, u64::MAX);
        assert!(wide.unsigned_abs() <= MAX_SHARING_MASK);
    }

    /// Runs one slice of comparisons on both sides over `tape`; returns the
    /// verdicts both sides agree on and Bob's ledger.
    fn compare_both(alice: Vec<Fe>, bob: Vec<Fe>, op: CmpOp) -> (Vec<bool>, SharingLedger) {
        let tape = DealerTape::from_seed(42);
        let domain = ComparisonDomain::symmetric(1 << 20);
        let (mut achan, mut bchan) = duplex();
        let a = std::thread::spawn(move || {
            let mut acct = SharingLedger::default();
            let scopes = |i| ctx(1).at(i as u64);
            let role = Party::Alice;
            let alice = alice.into_iter();
            sharing_compare(
                &tape, &mut achan, role, alice, op, &domain, scopes, &mut acct,
            )
            .unwrap()
        });
        let mut acct = SharingLedger::default();
        let scopes = |i| ctx(2).at(i as u64);
        let role = Party::Bob;
        let bob = bob.into_iter();
        let bv =
            sharing_compare(&tape, &mut bchan, role, bob, op, &domain, scopes, &mut acct).unwrap();
        assert_eq!(a.join().unwrap(), bv, "views must agree");
        (bv, acct)
    }

    #[test]
    fn compare_matches_plaintext() {
        let pairs = [(3i64, 4i64), (4, 3), (5, 5), (-9, 2), (2, -9), (-4, -4)];
        let side =
            |pick: fn(&(i64, i64)) -> i64| pairs.iter().map(|p| Fe::embed(pick(p))).collect();
        let (lt, acct) = compare_both(side(|p| p.0), side(|p| p.1), CmpOp::Lt);
        let (leq, _) = compare_both(side(|p| p.0), side(|p| p.1), CmpOp::Leq);
        for (i, (a, b)) in pairs.into_iter().enumerate() {
            assert_eq!(lt[i], a < b, "{a} < {b}");
            assert_eq!(leq[i], a <= b, "{a} <= {b}");
        }
        assert_eq!(acct.compares, pairs.len() as u64);
        assert!(acct.bit_triples > 0);
    }

    #[test]
    fn share_differences_compare_in_field() {
        // dist_a = u_a − v_a, dist_b = u_b − v_b; shares picked so the
        // i64 share differences would be large but in-field stays exact.
        let cases = [
            ((10i64, 3i64), (4i64, 1i64)),          // dist 6 vs 2 → false
            ((1, 9), (5, 2)),                       // -4 vs 7 → true
            ((i64::MAX - 2, 5), (i64::MAX - 4, 1)), // 2 vs 4 (mod shares) → true
        ];
        let diff = |a: i64, b: i64| Fe::embed(a) - Fe::embed(b);
        let alice = cases
            .iter()
            .map(|&((u_a, _), (u_b, _))| diff(u_a, u_b))
            .collect();
        let bob = cases
            .iter()
            .map(|&((_, v_a), (_, v_b))| diff(v_a, v_b))
            .collect();
        let (got, _) = compare_both(alice, bob, CmpOp::Lt);
        for (((u_a, v_a), (u_b, v_b)), got) in cases.into_iter().zip(got) {
            let expect = (diff(u_a, v_a) - diff(u_b, v_b)).lift() < 0;
            assert_eq!(got, expect);
        }
    }

    /// Four queries of lengths 5, 3, 3 and 1, served two pairs, none, one
    /// and three: every inner product is exact, both sides book the same
    /// triples, and the ledger's opened elements are the ring elements the
    /// two frames carried — `D` a pair, then `E` a query served anything
    /// and `s` a pair.
    #[test]
    fn folds_compute_exact_inner_products() {
        let ys = [
            vec![5i64, 5, -9, 2, -3],
            vec![9, 9, 9],
            vec![1, 1, 1],
            vec![-6],
        ];
        let per_query = [2, 0, 1, 3];
        let xs = vec![
            vec![3i64, -1, 0, 12, 7],
            vec![-2, 0, 1, 1, 4],
            vec![-3, 4, 5],
            vec![7],
            vec![2],
            vec![-1],
        ];
        let queried = [0, 0, 2, 3, 3, 3];
        let tape = DealerTape::from_seed(21);
        let (mut kchan, mut pchan) = duplex();
        let (us, acct) = std::thread::scope(|scope| {
            let key = scope.spawn(|| {
                let mut acct = SharingLedger::default();
                let scopes = |i| ctx(8).narrow("mul").at(i as u64);
                let us =
                    sharing_fold_keyholder(&tape, &mut kchan, &xs, &per_query, scopes, &mut acct);
                (us.unwrap(), acct)
            });
            // The peer's own seed differs: only the tape is shared.
            let base = ctx(9).narrow("mul");
            let mut acct = SharingLedger::default();
            let scopes = |i| base.at(i as u64);
            sharing_fold_peer(&tape, &mut pchan, &ys, &per_query, scopes, &mut acct).unwrap();
            let (us, kacct) = key.join().unwrap();
            assert_eq!(kacct, acct, "both sides book the same triples");
            (us, acct)
        });
        for ((u, x), &q) in us.iter().zip(&xs).zip(&queried) {
            let expect: i64 = x.iter().zip(&ys[q]).map(|(&x, &y)| x * y).sum();
            assert_eq!(u.lift(), expect);
        }
        assert_eq!(acct.triples, 2 * 5 + 3 + 3);
        assert_eq!(acct.opened_elements, (5 + 2 * 6) + (3 + 4) + (1 + 3 * 2));
        let traffic = pchan.metrics();
        assert_eq!(traffic.total_rounds(), 2, "one frame each way");
        let payload = traffic.total_bytes() - 4 * traffic.total_rounds();
        assert_eq!(
            acct.opened_elements,
            payload / 8,
            "the elements on the wire"
        );
    }

    #[test]
    fn split_halves_keep_two_exchanges_in_flight() {
        // The keyholder posts two fold slices before settling either, and
        // Alice posts two comparison slices before reading Bob's shares:
        // the results are the unsplit calls'.
        let tape = DealerTape::from_seed(77);
        let embed = |vs: &[i64]| vs.iter().map(|&v| Fe::embed(v)).collect::<Vec<Fe>>();
        let (xs, ys) = ([[3i64, -4], [5, 6]], [[2i64, 7], [-1, 1]]);
        let (alice, bob) = ([4i64, 9, -2], [5i64, 9, -3]);
        let slices = [ctx(5).narrow("first"), ctx(5).narrow("second")];
        let (mut kchan, mut pchan) = duplex();
        let keyholder = std::thread::spawn(move || {
            let mut acct = SharingLedger::default();
            let groups = xs.map(|x| vec![embed(&x)]);
            for (slice, groups) in slices.iter().zip(&groups) {
                let scopes = |g: usize| slice.at(g as u64);
                sharing_fold_keyholder_post(&tape, &mut kchan, groups, scopes).unwrap();
            }
            let mut folded = Vec::new();
            for (slice, groups) in slices.iter().zip(&groups) {
                let scopes = |g: usize| slice.at(g as u64);
                let us = sharing_fold_keyholder_finish(
                    &tape,
                    &mut kchan,
                    groups,
                    &[1],
                    scopes,
                    &mut acct,
                );
                folded.extend(us.unwrap().into_iter().map(Fe::lift));
            }
            // Then Bob's side of two comparison slices, one after the other.
            let domain = ComparisonDomain::symmetric(100);
            let mut verdicts = Vec::new();
            for slice in &slices {
                let bob = bob.iter().map(|&v| Fe::embed(v));
                let scopes = |i: usize| slice.narrow("cmp").at(i as u64);
                let role = Party::Bob;
                verdicts.push(
                    sharing_compare(
                        &tape,
                        &mut kchan,
                        role,
                        bob,
                        CmpOp::Lt,
                        &domain,
                        scopes,
                        &mut acct,
                    )
                    .unwrap(),
                );
            }
            (folded, verdicts)
        });
        let mut acct = SharingLedger::default();
        for (slice, y) in slices.iter().zip(ys) {
            let scopes = |g: usize| slice.at(g as u64);
            sharing_fold_peer(&tape, &mut pchan, &[embed(&y)], &[1], scopes, &mut acct).unwrap();
        }
        let domain = ComparisonDomain::symmetric(100);
        let operands = || alice.iter().map(|&v| Fe::embed(v));
        let cmp_scopes = |s: usize| move |i: usize| slices[s].narrow("cmp").at(i as u64);
        for s in 0..2 {
            sharing_compare_post(&tape, &mut pchan, operands(), cmp_scopes(s)).unwrap();
        }
        let mut verdicts = Vec::new();
        for s in 0..2 {
            let (op, scopes) = (CmpOp::Lt, cmp_scopes(s));
            let got = sharing_compare_finish(
                &tape,
                &mut pchan,
                operands(),
                op,
                &domain,
                scopes,
                &mut acct,
            );
            verdicts.push(got.unwrap());
        }
        let (folded, bob_verdicts) = keyholder.join().unwrap();
        assert_eq!(folded, [3 * 2 - 4 * 7, -5 + 6]);
        assert_eq!(verdicts, vec![vec![true, false, false]; 2]);
        assert_eq!(bob_verdicts, verdicts, "both sides agree");
    }

    #[test]
    fn dot_shares_reconstruct_inner_products() {
        // Two queries in one exchange: the first is served two rows, the
        // second one.
        let queries = [[4i64, -2, 1, 0], [0, 3, -3, 5]];
        let rows = vec![vec![1i64, 2, 3, 4], vec![-5, 0, 0, 9], vec![7, 7, 7, 7]];
        let (masks, per_query) = (vec![100i64, -40, 3], [2, 1]);
        let tape = DealerTape::from_seed(31);
        let embed = |vs: &[i64]| vs.iter().map(|&v| Fe::embed(v)).collect::<Vec<Fe>>();
        let qfes = queries.map(|xs| embed(&xs));
        let (mut qchan, mut rchan) = duplex();
        let querier = std::thread::spawn(move || {
            let mut acct = SharingLedger::default();
            let scopes = |q| ctx(9).at(q as u64).narrow("dot");
            let us = sharing_dot_querier(&tape, &mut qchan, &qfes, &per_query, scopes, &mut acct);
            (us.unwrap(), acct, qchan.metrics().total_rounds())
        });
        let rowfes: Vec<Vec<Fe>> = rows.iter().map(|r| embed(r)).collect();
        let mut acct = SharingLedger::default();
        let scopes = |q| ctx(10).at(q as u64).narrow("dot");
        sharing_dot_responder(
            &tape,
            &mut rchan,
            &rowfes,
            &embed(&masks),
            &per_query,
            scopes,
            &mut acct,
        )
        .unwrap();
        let (us, qacct, rounds) = querier.join().unwrap();
        assert_eq!(rounds, 2, "one frame each way for both queries");
        let asked = [queries[0], queries[0], queries[1]];
        for (((u, xs), row), &mask) in us.iter().zip(asked).zip(&rows).zip(&masks) {
            let ip: i64 = xs.iter().zip(row).map(|(&x, &y)| x * y).sum();
            // u − v = ⟨x, y⟩: the two sides hold additive shares.
            assert_eq!((*u - Fe::embed(mask)).lift(), ip);
        }
        assert_eq!(qacct.triples, (4 * rows.len()) as u64);
        assert_eq!(qacct, acct, "both sides book the same correlations");
    }

    /// What a dealer ships for one query of length 5 served three pairs:
    /// `β` once, then `α` and both `c` halves a pair — 26 elements where a
    /// triple a pair took 36.
    #[test]
    fn a_matrix_triple_books_the_shared_mask_once() {
        let mut ledger = SharingLedger::default();
        ledger.record_matrix_triple(5, 3);
        assert_eq!(ledger.triples, 15);
        assert_eq!(ledger.modeled_offline_bytes, 8 * (5 + 3 * (5 + 2)));
        assert_eq!(ledger.opened_elements, 5 + 3 * (5 + 1));
    }

    #[test]
    fn ledger_absorb_sums_fields() {
        let mut a = SharingLedger::default();
        a.record_compare(&ComparisonDomain::symmetric(100));
        let mut b = SharingLedger::default();
        b.record_matrix_triple(3, 4);
        b.record_matrix_triple(5, 1);
        let mut total = a;
        total.absorb(b);
        assert_eq!(total.compares, 1);
        assert_eq!(total.triples, 12 + 5);
        assert_eq!(total.opened_elements, a.opened_elements + b.opened_elements);
        assert_eq!(
            total.modeled_offline_bytes,
            a.modeled_offline_bytes + b.modeled_offline_bytes
        );
    }
}
