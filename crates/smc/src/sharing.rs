//! Additive secret sharing over `Z_2^64` — the field-element MPC backend.
//!
//! Every hot number the Paillier backend ships is a 512–2048-bit
//! ciphertext; this module replaces them with 8-byte ring elements. It
//! implements the three SMC workhorses over additive shares in the ring
//! `Z_2^64` (wrapping `u64` arithmetic):
//!
//! * [`sharing_fold_keyholder`] / [`sharing_fold_peer`] — Beaver-triple
//!   inner-product folds (the `mul_batches` substitute): the keyholder holds `x`, the
//!   peer holds `y`, the keyholder learns `⟨x, y⟩` at the cost of **one
//!   element exchange per group** instead of one ciphertext per element,
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
use ppds_observe::trace;
use ppds_transport::{Channel, Reader, TransportError, WireDecode, WireEncode};
use rand::{Rng, RngCore};
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Neg, Sub};

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

    /// Accounts one matrix-triple dot product: query length `m`, `rows`
    /// responder rows. Dealer issues `α` (m), the `B_j` rows (`rows·m`),
    /// and both halves of each `c_j` (`2·rows`); the online phase opens
    /// `D` (m) plus one `(E_j, s_j)` pair per row.
    pub fn record_dot(&mut self, m: usize, rows: usize) {
        let (m, rows) = (m as u64, rows as u64);
        self.triples += m * rows;
        self.opened_elements += m + rows * (m + 1);
        self.modeled_offline_bytes += 8 * (m + rows * m + 2 * rows);
    }

    /// Accounts one Beaver inner-product fold of vector length `m`
    /// (dealer: `α`, `β`, both `c` halves; online: `D`, `E`, `s`).
    pub fn record_fold(&mut self, m: usize) {
        let m = m as u64;
        self.triples += m;
        self.opened_elements += 2 * m + 1;
        self.modeled_offline_bytes += 8 * (2 * m + 2);
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

/// Opens `alice[i] − bob[i]` for a run of values each party holds one
/// operand of. Every share travels under a tape-derived zero-share (Alice
/// ships `a_i + ρ_i`, Bob `−b_i − ρ_i`, `ρ_i` from `scopes(i)`), one frame
/// each way for the whole run; Alice sends first.
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
    let mut opened: Vec<Fe> = values
        .enumerate()
        .map(|(i, value)| {
            let rho = open_mask(tape, &scopes(i));
            match role {
                Party::Alice => value + rho,
                Party::Bob => -value - rho,
            }
        })
        .collect();
    if role == Party::Alice {
        chan.send_batch(&opened)?;
    }
    let theirs: Vec<Fe> = chan.recv_batch()?;
    if theirs.len() != opened.len() {
        return Err(SmcError::protocol(format!(
            "masked open: expected {} shares, got {}",
            opened.len(),
            theirs.len()
        )));
    }
    if role == Party::Bob {
        chan.send_batch(&opened)?;
    }
    for (mine, theirs) in opened.iter_mut().zip(theirs) {
        *mine += theirs;
    }
    Ok(opened)
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
    let span = trace::span("cmp_batch", || chan.metrics());
    for _ in 0..operands.len() {
        acct.record_compare(domain);
    }
    let opened = open_differences(tape, chan, role, operands, scopes)?;
    span.end(|| chan.metrics());
    Ok(opened
        .into_iter()
        .map(|v| match op {
            CmpOp::Lt => v.lift() < 0,
            CmpOp::Leq => v.lift() <= 0,
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Beaver inner-product folds (the mul_batches substitute)
// ---------------------------------------------------------------------------

struct FoldTriple {
    alpha: Vec<Fe>,
    beta: Vec<Fe>,
    c1: Fe,
    c2: Fe,
}

fn fold_triple(tape: &DealerTape, ctx: &ProtocolContext, m: usize) -> FoldTriple {
    let t = tape.scope(ctx).narrow("fold");
    let alpha = draw_fes(&mut t.narrow("a").rng(), m);
    let beta = draw_fes(&mut t.narrow("b").rng(), m);
    let c1 = Fe::random(&mut t.narrow("c").rng());
    let c2 = fe_dot(&alpha, &beta) - c1;
    FoldTriple {
        alpha,
        beta,
        c1,
        c2,
    }
}

/// Keyholder side of a slice of Beaver inner-product folds: holds one `xs`
/// per group, learns `⟨xs, ys⟩` exactly (the Paillier path's per-element
/// masks are zero-sum, so its folded result is the same exact inner product
/// — this leaks nothing the paper's Multiplication Protocol composition
/// doesn't). All groups' `D` vectors ship as one frame, all replies return
/// as one; a slice of one group is one element exchange. Group `g` consumes
/// the tape at `scopes(g)` and nowhere else, so the correlations a group
/// uses do not depend on the slice it is shipped in.
pub fn sharing_fold_keyholder<C: Channel, S: Fn(usize) -> ProtocolContext>(
    tape: &DealerTape,
    chan: &mut C,
    groups: &[Vec<Fe>],
    scopes: S,
    acct: &mut SharingLedger,
) -> Result<Vec<Fe>, SmcError> {
    if groups.is_empty() {
        return Ok(Vec::new());
    }
    let span = trace::span("mul_batch", || chan.metrics());
    let trips: Vec<FoldTriple> = groups
        .iter()
        .enumerate()
        .map(|(g, xs)| fold_triple(tape, &scopes(g), xs.len()))
        .collect();
    let ds: Vec<Vec<Fe>> = groups
        .iter()
        .zip(&trips)
        .map(|(xs, t)| xs.iter().zip(&t.alpha).map(|(&x, &a)| x - a).collect())
        .collect();
    chan.send_batch(&ds)?;
    let replies: Vec<(Vec<Fe>, Fe)> = chan.recv_batch()?;
    if replies.len() != groups.len() {
        return Err(SmcError::protocol(format!(
            "fold: expected {} replies, got {}",
            groups.len(),
            replies.len()
        )));
    }
    let mut out = Vec::with_capacity(groups.len());
    for ((xs, trip), (e, s)) in groups.iter().zip(&trips).zip(&replies) {
        if e.len() != xs.len() {
            return Err(SmcError::protocol(format!(
                "fold: expected {} reply elements, got {}",
                xs.len(),
                e.len()
            )));
        }
        acct.record_fold(xs.len());
        out.push(fe_dot(xs, e) + trip.c1 + *s);
    }
    span.end(|| chan.metrics());
    Ok(out)
}

/// Peer half of [`sharing_fold_keyholder`]: holds one `ys` per group and
/// contributes no net mask (the fold's masks cancel by construction on both
/// backends).
pub fn sharing_fold_peer<C: Channel, S: Fn(usize) -> ProtocolContext>(
    tape: &DealerTape,
    chan: &mut C,
    groups: &[Vec<Fe>],
    scopes: S,
    acct: &mut SharingLedger,
) -> Result<(), SmcError> {
    if groups.is_empty() {
        return Ok(());
    }
    let span = trace::span("mul_batch", || chan.metrics());
    let trips: Vec<FoldTriple> = groups
        .iter()
        .enumerate()
        .map(|(g, ys)| fold_triple(tape, &scopes(g), ys.len()))
        .collect();
    let ds: Vec<Vec<Fe>> = chan.recv_batch()?;
    if ds.len() != groups.len() {
        return Err(SmcError::protocol(format!(
            "fold: expected {} queries, got {}",
            groups.len(),
            ds.len()
        )));
    }
    let mut replies = Vec::with_capacity(groups.len());
    for ((ys, trip), d) in groups.iter().zip(&trips).zip(&ds) {
        if d.len() != ys.len() {
            return Err(SmcError::protocol(format!(
                "fold: expected {} query elements, got {}",
                ys.len(),
                d.len()
            )));
        }
        let e: Vec<Fe> = ys.iter().zip(&trip.beta).map(|(&y, &b)| y - b).collect();
        let s = fe_dot(d, &trip.beta) + trip.c2;
        acct.record_fold(ys.len());
        replies.push((e, s));
    }
    chan.send_batch(&replies)?;
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
        acct.record_dot(xs.len(), rows.len());
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
        acct.record_dot(m, count);
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

    #[test]
    fn folds_compute_exact_inner_products() {
        let groups_x = vec![vec![3i64, -1, 0, 12, 7], vec![-3, 4, 5], vec![7]];
        let groups_y = vec![vec![5i64, 5, -9, 2, -3], vec![1, 1, 1], vec![-6]];
        let tape = DealerTape::from_seed(21);
        let fes = |groups: &[Vec<i64>]| -> Vec<Vec<Fe>> {
            let group = |g: &Vec<i64>| g.iter().map(|&v| Fe::embed(v)).collect();
            groups.iter().map(group).collect()
        };
        let (gx, gy) = (fes(&groups_x), fes(&groups_y));
        let (mut kchan, mut pchan) = duplex();
        let key = std::thread::spawn(move || {
            let mut acct = SharingLedger::default();
            let scopes = |g| ctx(8).narrow("mul").at(g as u64);
            let us = sharing_fold_keyholder(&tape, &mut kchan, &gx, scopes, &mut acct).unwrap();
            (us, acct)
        });
        // The peer's own seed differs: only the tape is shared.
        let base = ctx(9).narrow("mul");
        let mut acct = SharingLedger::default();
        sharing_fold_peer(&tape, &mut pchan, &gy, |g| base.at(g as u64), &mut acct).unwrap();
        let (us, kacct) = key.join().unwrap();
        for ((u, xs), ys) in us.iter().zip(&groups_x).zip(&groups_y) {
            let expect: i64 = xs.iter().zip(ys).map(|(&x, &y)| x * y).sum();
            assert_eq!(u.lift(), expect);
        }
        assert_eq!(kacct.triples, 9);
        assert_eq!(acct.opened_elements, 11 + 7 + 3);
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

    #[test]
    fn ledger_absorb_sums_fields() {
        let mut a = SharingLedger::default();
        a.record_compare(&ComparisonDomain::symmetric(100));
        let mut b = SharingLedger::default();
        b.record_dot(3, 4);
        b.record_fold(5);
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
