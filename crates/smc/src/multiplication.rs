//! The Multiplication Protocol (Algorithm 2, §4.1) over slices of element
//! groups, and its one-query/many-rows dot-product extension (§5).
//!
//! Roles follow the key, not the paper's character names, because the
//! DBSCAN protocols run it in both directions:
//!
//! * the **keyholder** owns the Paillier keypair, inputs `x`, and learns
//!   `u = x·y + v`;
//! * the **peer** inputs `y`, chooses the random mask `v`, and learns
//!   nothing (it only ever sees ciphertexts under the keyholder's key).
//!
//! In protocol HDP (§4.2) Bob is the keyholder (`x` = his attribute value)
//! and Alice the peer (`y` = her attribute value, `v` = her zero-sum blinding
//! term `r_i`). In the enhanced protocol (§5) Alice is the keyholder of the
//! dot-product form and Bob masks with `v_i`.
//!
//! All values are signed ([`BigInt`]) and ride the balanced `Z_n` encoding
//! from `ppds-paillier`; callers must keep `|x·y + v|` below `(n-1)/2`,
//! which every caller in this workspace guarantees by construction (lattice
//! coordinates and masks are tiny relative to ≥ 2^255).
//!
//! Randomness: every entry point takes record-scoped
//! [`ProtocolContext`]s instead of a threaded generator. `mul_batches_*`
//! key each group through a caller-supplied scope (`scopes(g)`), so a
//! group's draws are the same whichever slice carries it.

use crate::context::ProtocolContext;
use crate::error::SmcError;
use ppds_bigint::{random, BigInt, BigUint};
use ppds_observe::{trace, MetricsSnapshot};
use ppds_paillier::{Ciphertext, Keypair, PublicKey, SlotLayout};
use ppds_transport::Channel;
use rand::Rng;

/// How a response leg packs its masked values into shared Paillier words
/// (`ProtocolConfig::packing`): the peer's replies — masked products
/// `x·y + v`, masked distances `dist² + v` — are signed, so every slot
/// value is shifted by the public `offset` into `[0, 2^{slot_bits})`
/// before packing and shifted back after unpacking. The protocol layer
/// derives both fields from public bounds (coordinate bound, mask bound,
/// key size), so the two parties always agree without negotiation.
///
/// Carry-guard argument: with `offset ≥ |value|_max + |mask|_max` and
/// `slot_bits > bits(2·offset)`, every shifted slot value is strictly
/// below the slot boundary, so packed slots can never bleed into their
/// neighbors (see `ppds_paillier::packing`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResponsePacking {
    /// Slot layout under the keyholder's modulus.
    pub layout: SlotLayout,
    /// Public non-negative shift making signed slot values non-negative.
    pub offset: BigUint,
}

impl ResponsePacking {
    /// The plaintext slot addend for a signed mask/value `v`: `v + offset`.
    fn slot_plain(&self, v: &BigInt) -> Result<BigUint, SmcError> {
        let shifted = v + &BigInt::from(self.offset.clone());
        if shifted.is_negative() {
            return Err(SmcError::protocol(
                "mask below the packing offset; offset must bound the mask magnitude",
            ));
        }
        Ok(shifted.into_magnitude())
    }

    /// Recovers the signed value from an unpacked slot: `slot − offset`.
    fn recover(&self, slot: &BigUint) -> BigInt {
        &BigInt::from(slot.clone()) - &BigInt::from(self.offset.clone())
    }

    /// Decrypts packed response words and recovers the `count` signed slot
    /// values.
    fn unpack_signed(
        &self,
        keypair: &Keypair,
        words: &[BigUint],
        count: usize,
    ) -> Result<Vec<BigInt>, SmcError> {
        let slots = unpack_words(keypair, &self.layout, words, count)?;
        Ok(slots.iter().map(|slot| self.recover(slot)).collect())
    }
}

/// Decrypts packed wire words — one CRT decryption each — and splits them
/// into `count` raw slot values. Shared by the signed response unpack above
/// and the DGK verdict scan in [`crate::bitwise`].
pub(crate) fn unpack_words(
    keypair: &Keypair,
    layout: &SlotLayout,
    words: &[BigUint],
    count: usize,
) -> Result<Vec<BigUint>, SmcError> {
    if words.len() != layout.words_for(count) {
        return Err(SmcError::protocol(format!(
            "expected {} packed response words for {count} slots, got {}",
            layout.words_for(count),
            words.len()
        )));
    }
    // CPU-only phase: the span attributes wall time; its traffic delta is
    // structurally zero (no channel in scope).
    let span = trace::span("unpack", MetricsSnapshot::default);
    // One Montgomery batch inversion validates the whole word vector up
    // front (same accept set and error as per-word validation), so each
    // decryption skips its per-ciphertext GCD.
    let cts: Vec<Ciphertext> = words
        .iter()
        .map(|raw| Ciphertext::from_biguint(raw.clone()))
        .collect();
    keypair.public.validate_many(&cts)?;
    let plains: Vec<BigUint> = cts
        .iter()
        .map(|ct| keypair.private.decrypt_crt_prevalidated(ct))
        .collect::<Result<_, _>>()?;
    let mut out = Vec::with_capacity(count);
    for (w, plain) in plains.iter().enumerate() {
        let remaining = count - w * layout.capacity();
        out.extend(layout.split_word(plain, remaining));
    }
    span.end(MetricsSnapshot::default);
    Ok(out)
}

/// Samples a mask uniformly from `[-bound, bound]`. The generator is taken
/// by value so call sites pass a keyed leaf stream (`ctx.rng_for(i)`) or a
/// borrowed local (`&mut rng`).
pub fn sample_mask<R: Rng>(mut rng: R, bound: &BigUint) -> BigInt {
    if bound.is_zero() {
        return BigInt::zero();
    }
    let width = &(bound << 1usize) + 1u64; // 2·bound + 1 values
    let raw = random::gen_biguint_below(&mut rng, &width);
    &BigInt::from(raw) - &BigInt::from(bound.clone())
}

/// Keyholder side of Algorithm 2, for a slice of groups: group `g` holds the
/// inputs `x_{g,1..m}` of one logical multiplication batch (protocol HDP's
/// usage: one group per candidate pair, one element per attribute), and the
/// keyholder learns `u_{g,i} = x_{g,i}·y_{g,i} + v_{g,i}` per group. All
/// groups' ciphertexts ride **one** wire frame each direction; a slice of
/// one group is the paper's single exchange, byte for byte, and an empty
/// slice touches no wire.
///
/// `scopes(g)` is the record scope of group `g` — its elements draw
/// sequentially from that scope's leaf stream and from nothing else — so a
/// group's bytes do not depend on the slice it is shipped in.
pub fn mul_batches_keyholder<C, S>(
    chan: &mut C,
    keypair: &Keypair,
    xs_groups: &[Vec<BigInt>],
    scopes: S,
    packing: Option<&ResponsePacking>,
) -> Result<Vec<Vec<BigInt>>, SmcError>
where
    C: Channel,
    S: Fn(usize) -> ProtocolContext,
{
    if xs_groups.is_empty() {
        return Ok(Vec::new());
    }
    let span = trace::span("mul_batch", || chan.metrics());
    let cts_groups: Vec<Vec<BigUint>> = xs_groups
        .iter()
        .enumerate()
        .map(|(g, xs)| {
            let mut rng = scopes(g).rng();
            xs.iter()
                .map(|x| {
                    keypair
                        .encrypt_signed(x, &mut rng)
                        .map(|c| c.as_biguint().clone())
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<_, _>>()?;
    chan.send_batch(&cts_groups)?;
    if let Some(packing) = packing {
        // Packed reply: all groups' responses ride one flat word vector
        // (slots in group order), so small groups share words instead of
        // wasting one ciphertext per element.
        let words: Vec<BigUint> = chan.recv()?;
        let total: usize = xs_groups.iter().map(Vec::len).sum();
        let flat = packing.unpack_signed(keypair, &words, total)?;
        let mut flat = flat.into_iter();
        let out = xs_groups
            .iter()
            .map(|xs| (&mut flat).take(xs.len()).collect())
            .collect();
        span.end(|| chan.metrics());
        return Ok(out);
    }
    let responses: Vec<Vec<BigUint>> = chan.recv_batch()?;
    if responses.len() != xs_groups.len() {
        return Err(SmcError::protocol(format!(
            "expected {} masked product groups, got {}",
            xs_groups.len(),
            responses.len()
        )));
    }
    for (g, group) in responses.iter().enumerate() {
        if group.len() != xs_groups[g].len() {
            return Err(SmcError::protocol(format!(
                "expected {} masked products in group, got {}",
                xs_groups[g].len(),
                group.len()
            )));
        }
    }
    // Take ownership of the batch items so each ciphertext is wrapped in
    // place instead of cloned before decryption.
    let response_groups: Vec<Vec<Ciphertext>> = responses
        .into_iter()
        .map(|group| group.into_iter().map(Ciphertext::from_biguint).collect())
        .collect();
    let out: Vec<Vec<BigInt>> = response_groups
        .iter()
        .map(|group| {
            group
                .iter()
                .map(|c| keypair.private.decrypt_signed(c))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<_, _>>()?;
    span.end(|| chan.metrics());
    Ok(out)
}

/// Peer side of [`mul_batches_keyholder`]: one coefficient group `y_{g,·}`
/// per logical batch. `draw_masks(g)` produces group `g`'s masks `v_{g,·}`
/// from the caller's own keyed streams (HDP passes blinding terms with
/// `Σ_i v_{g,i} = 0`), and `scopes(g)` is the record scope whose leaf
/// stream encrypts them. Returns the masks drawn per group.
///
/// Groups are any slice-like coefficient vectors, so a caller multiplying
/// one vector against many peer groups (HDP's neighborhood query) can pass
/// `&[&[BigInt]]` borrowing a single allocation.
pub fn mul_batches_peer<C, F, G, S>(
    chan: &mut C,
    keyholder_pk: &PublicKey,
    ys_groups: &[G],
    mut draw_masks: F,
    scopes: S,
    packing: Option<&ResponsePacking>,
) -> Result<Vec<Vec<BigInt>>, SmcError>
where
    C: Channel,
    F: FnMut(usize) -> Vec<BigInt>,
    G: AsRef<[BigInt]>,
    S: Fn(usize) -> ProtocolContext,
{
    if ys_groups.is_empty() {
        return Ok(Vec::new());
    }
    let span = trace::span("mul_batch", || chan.metrics());
    let cts_groups: Vec<Vec<BigUint>> = chan.recv_batch()?;
    if cts_groups.len() != ys_groups.len() {
        return Err(SmcError::protocol(format!(
            "expected {} ciphertext groups, got {}",
            ys_groups.len(),
            cts_groups.len()
        )));
    }
    for (g, (cts, ys)) in cts_groups.iter().zip(ys_groups).enumerate() {
        if cts.len() != ys.as_ref().len() {
            return Err(SmcError::protocol(format!(
                "expected {} ciphertexts in group {g}, got {}",
                ys.as_ref().len(),
                cts.len()
            )));
        }
    }
    let all_masks: Vec<Vec<BigInt>> = (0..ys_groups.len())
        .map(|g| {
            let masks = draw_masks(g);
            assert_eq!(
                masks.len(),
                ys_groups[g].as_ref().len(),
                "one mask per multiplicand"
            );
            masks
        })
        .collect();
    if let Some(packing) = packing {
        // Packed reply: every group's products as shifted slots of one
        // flat word vector; masks ride as plaintext addends and each word
        // is re-randomized by its single packed-nonce encryption (group 0's
        // scope hosts the word-nonce substream).
        let product_groups: Vec<Vec<Ciphertext>> = cts_groups
            .iter()
            .zip(ys_groups)
            .map(|(cts, ys)| {
                let cxs: Vec<Ciphertext> = cts
                    .iter()
                    .map(|ct| Ciphertext::from_biguint(ct.clone()))
                    .collect();
                // One batch inversion validates the whole group.
                keyholder_pk.validate_many(&cxs)?;
                Ok::<_, SmcError>(
                    cxs.iter()
                        .zip(ys.as_ref())
                        .map(|(cx, y)| keyholder_pk.mul_plain_signed(cx, y))
                        .collect(),
                )
            })
            .collect::<Result<_, _>>()?;
        let products: Vec<Ciphertext> = product_groups.into_iter().flatten().collect();
        let plains: Vec<BigUint> = all_masks
            .iter()
            .flatten()
            .map(|v| packing.slot_plain(v))
            .collect::<Result<_, _>>()?;
        let words = keyholder_pk.pack_ciphertexts(
            &packing.layout,
            &products,
            &plains,
            &mut scopes(0).narrow("pack").rng(),
        )?;
        let wire: Vec<BigUint> = words.iter().map(|c| c.as_biguint().clone()).collect();
        chan.send(&wire)?;
        span.end(|| chan.metrics());
        return Ok(all_masks);
    }
    let responses: Vec<Vec<BigUint>> = cts_groups
        .iter()
        .enumerate()
        .map(|(g, cts)| {
            let mut rng = scopes(g).rng();
            let ys = ys_groups[g].as_ref();
            let cxs: Vec<Ciphertext> = cts
                .iter()
                .map(|ct| Ciphertext::from_biguint(ct.clone()))
                .collect();
            // One batch inversion validates the whole group.
            keyholder_pk.validate_many(&cxs)?;
            let mut group_out = Vec::with_capacity(cxs.len());
            for ((cx, y), v) in cxs.iter().zip(ys).zip(&all_masks[g]) {
                let xy = keyholder_pk.mul_plain_signed(cx, y);
                let masked = keyholder_pk.add(&xy, &keyholder_pk.encrypt_signed(v, &mut rng)?);
                group_out.push(masked.as_biguint().clone());
            }
            Ok::<_, SmcError>(group_out)
        })
        .collect::<Result<_, _>>()?;
    chan.send_batch(&responses)?;
    span.end(|| chan.metrics());
    Ok(all_masks)
}

/// Keyholder side of the one-query/many-responses dot product used by the
/// enhanced protocol (§5), for a slice of queries: query `q`'s coefficient
/// vector `(ΣA², -2A_1, …, -2A_m, 1)` is encrypted **once** under `scopes(q)`,
/// and the peer answers it with one masked dot product per point he serves
/// it: `u_j = Dist²(A, B_j) + v_j`, `expected_rows[q]` of them. All queries'
/// vectors ride one frame and all replies one; a slice of one query is the
/// paper's single exchange, byte for byte, and an empty slice touches no
/// wire. Returns every query's shares, concatenated in query order.
pub fn dot_many_keyholder<C, X, S>(
    chan: &mut C,
    keypair: &Keypair,
    queries: &[X],
    expected_rows: &[usize],
    packing: Option<&ResponsePacking>,
    scopes: S,
) -> Result<Vec<BigInt>, SmcError>
where
    C: Channel,
    X: AsRef<[BigInt]>,
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
    let cts: Vec<Vec<BigUint>> = queries
        .iter()
        .enumerate()
        .map(|(q, xs)| {
            let mut rng = scopes(q).rng();
            xs.as_ref()
                .iter()
                .map(|x| {
                    keypair
                        .encrypt_signed(x, &mut rng)
                        .map(|c| c.as_biguint().clone())
                })
                .collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()?;
    chan.send_batch(&cts)?;
    let replies: Vec<Vec<BigUint>> = chan.recv_batch()?;
    if replies.len() != queries.len() {
        return Err(SmcError::protocol(format!(
            "expected dot replies to {} queries, got {}",
            queries.len(),
            replies.len()
        )));
    }
    // The counts were agreed before this exchange; the replies must fit them.
    let mut out = Vec::new();
    for (reply, &rows) in replies.into_iter().zip(expected_rows) {
        if let Some(packing) = packing {
            // Packed reply: ⌈rows/capacity⌉ words — the querier's decryption
            // bill scales with neighborhoods, not with candidate points.
            out.extend(packing.unpack_signed(keypair, &reply, rows)?);
            continue;
        }
        if reply.len() != rows {
            return Err(SmcError::protocol(format!(
                "expected {rows} dot products, got {}",
                reply.len()
            )));
        }
        for c in reply {
            let share = keypair
                .private
                .decrypt_signed(&Ciphertext::from_biguint(c))?;
            out.push(share);
        }
    }
    span.end(|| chan.metrics());
    Ok(out)
}

/// Peer side of [`dot_many_keyholder`]: `ys_rows` holds every query's
/// coefficient rows back to back, `rows_per_query[q]` of them for query `q`,
/// each dotted against that query's encrypted vector. Returns the masks
/// `v_j` drawn (uniform in `[-mask_bound, mask_bound]`), in row order; row
/// `j` of query `q` draws from `scopes(q).rng_for(j)`, so a row's bytes
/// depend neither on the rows nor on the queries around it.
pub fn dot_many_peer<C, S>(
    chan: &mut C,
    keyholder_pk: &PublicKey,
    ys_rows: &[Vec<BigInt>],
    rows_per_query: &[usize],
    mask_bound: &BigUint,
    packing: Option<&ResponsePacking>,
    scopes: S,
) -> Result<Vec<BigInt>, SmcError>
where
    C: Channel,
    S: Fn(usize) -> ProtocolContext,
{
    let total: usize = rows_per_query.iter().sum();
    assert_eq!(total, ys_rows.len(), "every row belongs to one query");
    if rows_per_query.is_empty() {
        return Ok(Vec::new());
    }
    let span = trace::span("dot_many", || chan.metrics());
    let queries: Vec<Vec<BigUint>> = chan.recv_batch()?;
    if queries.len() != rows_per_query.len() {
        return Err(SmcError::protocol(format!(
            "expected {} dot queries, got {}",
            rows_per_query.len(),
            queries.len()
        )));
    }
    let (mut replies, mut masks) = (Vec::with_capacity(queries.len()), Vec::new());
    let mut rest = ys_rows;
    for (q, (cts, &rows)) in queries.into_iter().zip(rows_per_query).enumerate() {
        let (mine, others) = rest.split_at(rows);
        rest = others;
        let cts: Vec<Ciphertext> = cts.into_iter().map(Ciphertext::from_biguint).collect();
        replies.push(dot_reply(
            keyholder_pk,
            &cts,
            mine,
            mask_bound,
            packing,
            &scopes(q),
            &mut masks,
        )?);
    }
    chan.send_batch(&replies)?;
    span.end(|| chan.metrics());
    Ok(masks)
}

/// The peer's reply to one query's encrypted vector `cts` over that query's
/// rows; the masks drawn are appended to `masks`.
fn dot_reply(
    keyholder_pk: &PublicKey,
    cts: &[Ciphertext],
    ys_rows: &[Vec<BigInt>],
    mask_bound: &BigUint,
    packing: Option<&ResponsePacking>,
    ctx: &ProtocolContext,
    masks: &mut Vec<BigInt>,
) -> Result<Vec<BigUint>, SmcError> {
    // Batch validation: one Montgomery batch inversion instead of one GCD
    // per ciphertext, with the same accept set and error.
    keyholder_pk.validate_many(cts)?;
    // A row is one multi-exponentiation over sign-folded bases — the
    // ciphertext, or its inverse for a negative coefficient — so its ladder
    // is as long as its coefficients (≤ 64 bits), whatever the key size.
    // One batch inversion serves every row; the bytes match the per-row
    // mul_plain_signed/add fold exactly.
    let inverses = keyholder_pk.negate_many(cts)?;
    if let Some(ys) = ys_rows.iter().find(|ys| ys.len() != cts.len()) {
        return Err(SmcError::protocol(format!(
            "dot product arity mismatch: {} ciphertexts vs {} coefficients",
            cts.len(),
            ys.len()
        )));
    }
    let first = masks.len();
    if let Some(packing) = packing {
        // Packed reply: row j's homomorphic dot product rides slot j; its
        // mask v_j (drawn from the same keyed stream as the unpacked form,
        // so shares agree across transports) travels as the word's
        // plaintext addend, and one packed-nonce encryption re-randomizes
        // each word — so the products go in unmasked and unrandomized.
        let products: Vec<Ciphertext> = ys_rows
            .iter()
            .map(|ys| keyholder_pk.dot_plain_signed(cts, &inverses, ys))
            .collect();
        masks.extend((0..ys_rows.len()).map(|j| sample_mask(ctx.rng_for(j as u64), mask_bound)));
        let plains: Vec<BigUint> = masks[first..]
            .iter()
            .map(|v| packing.slot_plain(v))
            .collect::<Result<_, _>>()?;
        let words = keyholder_pk.pack_ciphertexts(
            &packing.layout,
            &products,
            &plains,
            &mut ctx.narrow("pack").rng(),
        )?;
        return Ok(words.iter().map(|c| c.as_biguint().clone()).collect());
    }
    ys_rows
        .iter()
        .enumerate()
        .map(|(j, ys)| {
            let mut rng = ctx.rng_for(j as u64);
            let v = sample_mask(&mut rng, mask_bound);
            let masked = keyholder_pk.add(
                &keyholder_pk.encrypt_signed(&v, &mut rng)?,
                &keyholder_pk.dot_plain_signed(cts, &inverses, ys),
            );
            masks.push(v);
            Ok(masked.as_biguint().clone())
        })
        .collect()
}

/// Generates `count` blinding terms that sum to zero, each component
/// uniform in `[-bound, bound]` except the last, which balances the sum —
/// the `r_1 + r_2 + … + r_m = 0` construction of protocol HDP. The
/// generator is taken by value: pass a keyed leaf stream
/// (`ctx.rng_for(record)`) so the draw is order-independent.
pub fn zero_sum_masks<R: Rng>(mut rng: R, count: usize, bound: &BigUint) -> Vec<BigInt> {
    if count == 0 {
        return Vec::new();
    }
    let mut masks: Vec<BigInt> = (0..count - 1)
        .map(|_| sample_mask(&mut rng, bound))
        .collect();
    let sum = masks.iter().fold(BigInt::zero(), |acc, m| &acc + m);
    masks.push(-&sum);
    masks
}

/// Upper bound on `|Σ x_i·y_i + v|` given element bounds; used by callers to
/// size comparison domains.
pub fn dot_product_bound(len: usize, x_bound: u64, y_bound: u64, mask_bound: &BigUint) -> BigUint {
    let per_term = BigUint::from_u128(x_bound as u128 * y_bound as u128);
    &(&per_term * len as u64) + mask_bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_helpers::{bob_keypair, ctx, rng};
    use ppds_transport::{duplex, MetricsSnapshot};

    fn bi(v: i64) -> BigInt {
        BigInt::from_i64(v)
    }

    fn groups(values: &[&[i64]]) -> Vec<Vec<BigInt>> {
        values
            .iter()
            .map(|g| g.iter().map(|&v| bi(v)).collect())
            .collect()
    }

    /// Runs one slice of groups (keyholder in a thread, zero-sum masks of
    /// magnitude ≤ 1000 on the peer side); returns the masked products, the
    /// masks and the keyholder's traffic.
    fn run_groups(
        xs_groups: &[Vec<BigInt>],
        ys_groups: &[Vec<BigInt>],
        packing: Option<&ResponsePacking>,
        (seed_k, seed_p): (u64, u64),
    ) -> (Vec<Vec<BigInt>>, Vec<Vec<BigInt>>, MetricsSnapshot) {
        let (mut kchan, mut pchan) = duplex();
        std::thread::scope(|scope| {
            let keyholder = scope.spawn(move || {
                let kctx = ctx(seed_k).narrow("mul");
                let scopes = |g| kctx.at(g as u64);
                let us =
                    mul_batches_keyholder(&mut kchan, bob_keypair(), xs_groups, scopes, packing);
                (us.unwrap(), kchan.metrics())
            });
            let pctx = ctx(seed_p);
            let (mask_ctx, mul_ctx) = (pctx.narrow("mask"), pctx.narrow("mul"));
            let bound = BigUint::from_u64(1000);
            let masks = mul_batches_peer(
                &mut pchan,
                &bob_keypair().public,
                ys_groups,
                |g| zero_sum_masks(mask_ctx.rng_for(g as u64), ys_groups[g].len(), &bound),
                |g| mul_ctx.at(g as u64),
                packing,
            )
            .unwrap();
            let (us, metrics) = keyholder.join().unwrap();
            (us, masks, metrics)
        })
    }

    #[test]
    fn mask_bound_respected() {
        for seed in 0..20u64 {
            let mut r = rng(seed);
            let v = sample_mask(&mut r, &BigUint::from_u64(5));
            let v = v.to_i64().unwrap();
            assert!((-5..=5).contains(&v), "v = {v}");
        }
        assert!(sample_mask(rng(1), &BigUint::zero()).is_zero());
    }

    #[test]
    fn masks_actually_vary() {
        let mut r = rng(3);
        let bound = BigUint::from_u64(1 << 30);
        let a = sample_mask(&mut r, &bound);
        let b = sample_mask(&mut r, &bound);
        assert_ne!(a, b);
        // Keyed leaf streams vary across records too.
        let step = ctx(9).narrow("mask");
        assert_ne!(
            sample_mask(step.rng_for(0), &bound),
            sample_mask(step.rng_for(1), &bound)
        );
    }

    #[test]
    fn algorithm2_identity_holds_per_element_in_two_rounds() {
        // Three logical multiplication batches of different sizes and all
        // sign combinations, one wire frame each way.
        let xs_groups = groups(&[&[3, -1, 0, 7], &[], &[12, 0, -7], &[-5, 5]]);
        let ys_groups = groups(&[&[5, 5, -9, 0], &[], &[2, -9, 4], &[6, -6]]);
        let (us, masks, metrics) = run_groups(&xs_groups, &ys_groups, None, (20, 21));
        assert_eq!(metrics.total_rounds(), 2, "one frame each direction");
        for g in 0..xs_groups.len() {
            assert_eq!(us[g].len(), xs_groups[g].len());
            for i in 0..xs_groups[g].len() {
                let expect = &(&xs_groups[g][i] * &ys_groups[g][i]) + &masks[g][i];
                assert_eq!(us[g][i], expect, "group {g} element {i}");
            }
            // Zero-sum masks cancel per group: Σu telescopes to the exact
            // inner product — the algebra HDP relies on.
            let sum = us[g].iter().fold(BigInt::zero(), |acc, u| &acc + u);
            let ip = xs_groups[g]
                .iter()
                .zip(&ys_groups[g])
                .fold(BigInt::zero(), |acc, (x, y)| &acc + &(x * y));
            assert_eq!(sum, ip, "group {g}");
        }
    }

    #[test]
    fn group_arity_mismatch_is_protocol_error() {
        let (mut kchan, mut pchan) = duplex();
        let keyholder = std::thread::spawn(move || {
            let kctx = ctx(22);
            // Two groups sent; peer expects three.
            let _ = mul_batches_keyholder(
                &mut kchan,
                bob_keypair(),
                &[vec![bi(1)], vec![bi(2)]],
                |g| kctx.at(g as u64),
                None,
            );
        });
        let pctx = ctx(23);
        let err = mul_batches_peer(
            &mut pchan,
            &bob_keypair().public,
            &[vec![bi(1)], vec![bi(2)], vec![bi(3)]],
            |g| {
                vec![sample_mask(
                    pctx.narrow("mask").rng_for(g as u64),
                    &BigUint::from_u64(5),
                )]
            },
            |g| pctx.narrow("mul").at(g as u64),
            None,
        )
        .unwrap_err();
        assert!(matches!(err, SmcError::Protocol(_)));
        drop(pchan);
        let _ = keyholder.join();
    }

    /// The §5 usage: Alice's vector (ΣA², -2A_1, -2A_2, 1) against Bob's
    /// rows (1, B_1, B_2, ΣB²) yields dist²(A, B_j) + v_j.
    fn distance_rows(a: [i64; 2], bobs: &[[i64; 2]]) -> (Vec<BigInt>, Vec<Vec<BigInt>>) {
        let norm = |p: &[i64; 2]| p.iter().map(|x| x * x).sum::<i64>();
        let xs = groups(&[&[norm(&a), -2 * a[0], -2 * a[1], 1]]).remove(0);
        let ys_rows = bobs
            .iter()
            .map(|b| groups(&[&[1, b[0], b[1], norm(b)]]).remove(0))
            .collect();
        (xs, ys_rows)
    }

    /// Runs one dot_many exchange; returns the querier's shares, the
    /// responder's masks and the reply bytes the querier received.
    fn run_dot_many(
        xs: &[BigInt],
        ys_rows: &[Vec<BigInt>],
        mask_bound: u64,
        packing: Option<&ResponsePacking>,
    ) -> (Vec<BigInt>, Vec<BigInt>, u64) {
        let (mut kchan, mut pchan) = duplex();
        std::thread::scope(|scope| {
            let rows = ys_rows.len();
            let keyholder = scope.spawn(move || {
                let kp = bob_keypair();
                let out = dot_many_keyholder(&mut kchan, kp, &[xs], &[rows], packing, |_| ctx(12));
                (out.unwrap(), kchan.metrics().bytes_received)
            });
            let bound = BigUint::from_u64(mask_bound);
            let pk = &bob_keypair().public;
            let scopes = |_| ctx(13);
            let masks =
                dot_many_peer(&mut pchan, pk, ys_rows, &[rows], &bound, packing, scopes).unwrap();
            let (us, reply_bytes) = keyholder.join().unwrap();
            (us, masks, reply_bytes)
        })
    }

    #[test]
    fn dot_many_computes_all_squared_distances() {
        let (xs, ys_rows) = distance_rows([3, 4], &[[0, 0], [3, 0], [6, 8]]);
        let (us, masks, _) = run_dot_many(&xs, &ys_rows, 1 << 16, None);
        let expect = [25i64, 16, 25]; // dist²((3,4), ·)
        for j in 0..3 {
            assert_eq!(&us[j] - &masks[j], bi(expect[j]), "point {j}");
        }
    }

    #[test]
    fn dot_many_arity_mismatch_is_protocol_error() {
        let (mut kchan, mut pchan) = duplex();
        let keyholder = std::thread::spawn(move || {
            // Keyholder sends 2 ciphertexts; the peer's rows hold 3.
            let xs = [bi(1), bi(2)];
            let _ = dot_many_keyholder(&mut kchan, bob_keypair(), &[xs], &[1], None, |_| ctx(8));
        });
        let err = dot_many_peer(
            &mut pchan,
            &bob_keypair().public,
            &[vec![bi(1), bi(2), bi(3)]],
            &[1],
            &BigUint::from_u64(10),
            None,
            |_| ctx(9),
        )
        .unwrap_err();
        assert!(matches!(err, SmcError::Protocol(_)));
        drop(pchan);
        let _ = keyholder.join();
    }

    fn test_packing(offset: u64) -> ResponsePacking {
        // Slot wide enough for |value| + |mask| ≤ offset on each side.
        let bits = BigUint::from_u64(2 * offset).bit_length() + 1;
        ResponsePacking {
            layout: SlotLayout::new(bob_keypair().public.bits(), bits).unwrap(),
            offset: BigUint::from_u64(offset),
        }
    }

    #[test]
    fn packed_groups_match_unpacked_groups_with_fewer_ciphertexts() {
        let xs_groups = groups(&[&[3, -1], &[7], &[0, 2, 5]]);
        let ys_groups = groups(&[&[5, 5], &[-2], &[1, 4, -6]]);
        let (us_plain, masks_plain, plain) = run_groups(&xs_groups, &ys_groups, None, (30, 31));
        let packing = test_packing(1 << 12);
        assert!(packing.layout.capacity() >= 6, "{:?}", packing.layout);
        let (us, masks, packed) = run_groups(&xs_groups, &ys_groups, Some(&packing), (30, 31));
        // Identical mask draws (same keyed streams) and identical masked
        // products — only the transport changed: all six products of the
        // three groups rode one packed word.
        assert_eq!(masks, masks_plain);
        assert_eq!(us, us_plain);
        assert_eq!(
            packed.messages_received, 1,
            "one reply message carrying one word"
        );
        assert!(packed.bytes_received * 4 < plain.bytes_received);
    }

    #[test]
    fn packed_dot_many_matches_unpacked_shares() {
        let (xs, ys_rows) = distance_rows([3, 4], &[[0, 0], [3, 0], [6, 8], [1, 2], [5, 5]]);
        // Offset must cover dist² + mask: dist² ≤ 200 here, mask ≤ 2^16.
        let packing = test_packing((1 << 16) + 200);
        let (us_plain, masks_plain, bytes_plain) = run_dot_many(&xs, &ys_rows, 1 << 16, None);
        let (us_packed, masks_packed, bytes_packed) =
            run_dot_many(&xs, &ys_rows, 1 << 16, Some(&packing));
        // Same keyed mask streams → identical shares on both sides.
        assert_eq!(masks_packed, masks_plain);
        assert_eq!(us_packed, us_plain);
        let expect = [25i64, 16, 25, 8, 5]; // dist²((3,4), ·)
        for j in 0..5 {
            assert_eq!(&us_packed[j] - &masks_packed[j], bi(expect[j]), "point {j}");
        }
        assert!(
            bytes_plain as f64 >= 4.0 * bytes_packed as f64,
            "reply bytes {bytes_plain} unpacked vs {bytes_packed} packed"
        );
    }

    #[test]
    fn dot_rows_with_negative_and_zero_coefficients_on_both_arms() {
        // The responder's coefficients carry the sign here (a lattice
        // coordinate below zero), an all-zero row, and a 62-bit magnitude.
        let xs = groups(&[&[7, -3, 0, 11]]).remove(0);
        let ys_rows = groups(&[
            &[-2, 5, 9, 0],
            &[0, 0, 0, 0],
            &[-1, -1, -1, -1],
            &[4, 0, -6, 1],
            &[-(1 << 62), 1 << 62, 5, -(1 << 62)],
        ]);
        let dot = |ys: &[BigInt]| {
            xs.iter()
                .zip(ys)
                .fold(BigInt::zero(), |acc, (x, y)| &acc + &(x * y))
        };
        let (us, masks, _) = run_dot_many(&xs, &ys_rows, 1 << 16, None);
        for (j, ys) in ys_rows.iter().enumerate() {
            assert_eq!(&us[j] - &masks[j], dot(ys), "unpacked row {j}");
        }
        // Packed slots bound |value| + |mask|: the rows that fit.
        let packing = test_packing((1 << 16) + 200);
        let (us, masks, _) = run_dot_many(&xs, &ys_rows[..4], 1 << 16, Some(&packing));
        for (j, ys) in ys_rows[..4].iter().enumerate() {
            assert_eq!(&us[j] - &masks[j], dot(ys), "packed row {j}");
        }
    }

    /// A peer serving one single-element group to a hand-fed frame.
    fn peer_of_one(
        pchan: &mut impl Channel,
        mask: BigInt,
        packing: Option<&ResponsePacking>,
    ) -> SmcError {
        let pk = &bob_keypair().public;
        let scopes = |_| ctx(9);
        mul_batches_peer(
            pchan,
            pk,
            &[[bi(1)]],
            |_| vec![mask.clone()],
            scopes,
            packing,
        )
        .unwrap_err()
    }

    #[test]
    fn packed_mask_below_offset_is_protocol_error() {
        // offset 4 cannot absorb a mask of magnitude up to 1000.
        let packing = ResponsePacking {
            layout: SlotLayout::new(bob_keypair().public.bits(), 24).unwrap(),
            offset: BigUint::from_u64(4),
        };
        let (mut kchan, mut pchan) = duplex();
        let ct = bob_keypair()
            .public
            .encrypt_signed(&bi(1), &mut rng(7))
            .unwrap();
        kchan.send(&vec![ct.as_biguint().clone()]).unwrap();
        let err = peer_of_one(&mut pchan, bi(-1000), Some(&packing));
        assert!(matches!(err, SmcError::Protocol(_)));
    }

    #[test]
    fn peer_rejects_invalid_ciphertext() {
        let (mut kchan, mut pchan) = duplex();
        // Hand-inject an invalid "ciphertext" (zero).
        kchan.send(&vec![BigUint::zero()]).unwrap();
        let err = peer_of_one(&mut pchan, bi(0), None);
        assert!(matches!(err, SmcError::Crypto(_)));
    }

    #[test]
    fn zero_sum_masks_sum_to_zero() {
        let mut r = rng(10);
        for count in [1usize, 2, 3, 8, 33] {
            let masks = zero_sum_masks(&mut r, count, &BigUint::from_u64(1 << 16));
            assert_eq!(masks.len(), count);
            let sum = masks.iter().fold(BigInt::zero(), |acc, m| &acc + m);
            assert!(sum.is_zero(), "count = {count}");
        }
        assert!(zero_sum_masks(&mut r, 0, &BigUint::from_u64(5)).is_empty());
    }

    #[test]
    fn dot_product_bound_is_safe() {
        let bound = dot_product_bound(3, 100, 50, &BigUint::from_u64(7));
        // 3 * 100*50 + 7
        assert_eq!(bound, BigUint::from_u64(15_007));
    }
}
