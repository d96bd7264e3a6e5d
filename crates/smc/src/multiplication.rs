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
use crate::{recv_run, send_run};
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

/// The keyholder's ciphertexts of each group of signed inputs, group `g`
/// sealed from `scopes(g)`'s stream as one `Keypair::encrypt_signed` call
/// a message would seal it: every group of a call in one
/// [`Keypair::encrypt_groups`], so that its comb scans share the
/// eight-lane product.
fn encrypt_signed_groups<X, S>(
    keypair: &Keypair,
    groups: &[X],
    scopes: S,
) -> Result<Vec<Vec<BigUint>>, SmcError>
where
    X: AsRef<[BigInt]>,
    S: Fn(usize) -> ProtocolContext,
{
    let encoded: Vec<Vec<BigUint>> = groups
        .iter()
        .map(|xs| {
            let xs = xs.as_ref().iter();
            xs.map(|x| keypair.public.encode_signed(x))
                .collect::<Result<_, _>>()
        })
        .collect::<Result<_, _>>()?;
    let streams = (0..encoded.len()).map(|g| scopes(g).rng());
    let cts = keypair.encrypt_groups(encoded.iter().map(Vec::as_slice).zip(streams))?;
    Ok(cts
        .iter()
        .map(|group| group.iter().map(|c| c.as_biguint().clone()).collect())
        .collect())
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
    let cts_groups = encrypt_signed_groups(keypair, xs_groups, scopes)?;
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
/// vectors ride one frame, and the reply is one flat run over every row of
/// the call — `Σ rows` ciphertexts, or `⌈Σ rows / capacity⌉` packed words —
/// counted as one message a query. A slice of one query is the paper's
/// single exchange, and an empty slice touches no wire. Returns every
/// query's shares, concatenated in query order.
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
    let cts = encrypt_signed_groups(keypair, queries, scopes)?;
    chan.send_batch(&cts)?;
    let reply: Vec<BigUint> = recv_run(chan, queries.len())?;
    // The counts were agreed before this exchange; the run must fit them
    // before anything in it is decrypted.
    let rows: usize = expected_rows.iter().sum();
    let out = match packing {
        // ⌈rows/capacity⌉ words: the querier's decryption bill scales with
        // the call, not with its queries or candidate points.
        Some(packing) => packing.unpack_signed(keypair, &reply, rows)?,
        None if reply.len() != rows => {
            return Err(SmcError::protocol(format!(
                "expected {rows} dot products, got {}",
                reply.len()
            )))
        }
        None => reply
            .into_iter()
            .map(|c| keypair.private.decrypt_signed(&Ciphertext::from_biguint(c)))
            .collect::<Result<_, _>>()?,
    };
    span.end(|| chan.metrics());
    Ok(out)
}

/// Peer side of [`dot_many_keyholder`]: `ys_rows` holds every query's
/// coefficient rows back to back, `rows_per_query[q]` of them for query `q`,
/// each dotted against that query's encrypted vector. Returns the masks
/// `v_j` drawn (uniform in `[-mask_bound, mask_bound]`), in row order; row
/// `j` of query `q` draws from `scopes(q).rng_for(j)`, so a row's mask
/// depends neither on the rows nor on the queries around it. Packed, every
/// row of the call rides one word run, re-randomized by word nonces drawn
/// from `scopes(0).narrow("pack")` — group 0 hosts the word nonce, as in
/// [`mul_batches_peer`].
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
    // Each query's rows, and the first query whose rows do not fit its
    // vector: it and the queries before it are checked as ciphertexts
    // first, as they were one query at a time.
    let mut rest = ys_rows;
    let row_groups: Vec<&[Vec<BigInt>]> = rows_per_query
        .iter()
        .map(|&count| {
            let (mine, others) = rest.split_at(count);
            rest = others;
            mine
        })
        .collect();
    let misfit = queries
        .iter()
        .zip(&row_groups)
        .enumerate()
        .find_map(|(q, (cts, ys))| {
            let ys = ys.iter().find(|ys| ys.len() != cts.len())?;
            Some((q, cts.len(), ys.len()))
        });
    let queries: Vec<Vec<Ciphertext>> = queries
        .into_iter()
        .map(|cts| cts.into_iter().map(Ciphertext::from_biguint).collect())
        .collect();
    // One batch inversion mod n² serves every row of the call and
    // validates every query (same accept set and error as `validate_many`).
    let checked = &queries[..misfit.map_or(queries.len(), |(q, ..)| q + 1)];
    let inverses = keyholder_pk.negate_many(&checked.concat())?;
    if let Some((_, cts, coefficients)) = misfit {
        return Err(SmcError::protocol(format!(
            "dot product arity mismatch: {cts} ciphertexts vs {coefficients} coefficients"
        )));
    }
    let (mut rows, mut masks) = (Vec::with_capacity(total), Vec::with_capacity(total));
    let mut inverses = inverses.as_slice();
    for (q, (cts, mine)) in queries.iter().zip(row_groups).enumerate() {
        let (these, others) = inverses.split_at(cts.len());
        inverses = others;
        let reply = dot_reply(
            keyholder_pk,
            cts,
            these,
            mine,
            mask_bound,
            packing.is_none(),
            &scopes(q),
        )?;
        for (row, v) in reply {
            rows.push(row);
            masks.push(v);
        }
    }
    let reply = match packing {
        // Row j's homomorphic dot product rides slot j of the run; its mask
        // v_j (drawn from the same keyed stream as the unpacked form, so
        // shares agree across transports) travels as the word's plaintext
        // addend, and one packed-nonce encryption re-randomizes each word.
        Some(packing) => {
            let plains: Vec<BigUint> = masks
                .iter()
                .map(|v| packing.slot_plain(v))
                .collect::<Result<_, _>>()?;
            keyholder_pk.pack_ciphertexts(
                &packing.layout,
                &rows,
                &plains,
                &mut scopes(0).narrow("pack").rng(),
            )?
        }
        None => rows,
    };
    let reply: Vec<BigUint> = reply.iter().map(|c| c.as_biguint().clone()).collect();
    send_run(chan, &reply, rows_per_query.len())?;
    span.end(|| chan.metrics());
    Ok(masks)
}

/// The peer's rows for one query's encrypted vector `cts` (with their
/// inverses, `E(−x_i)`), each with the mask `v_j` drawn for it. A masked
/// row is `E(⟨x, y_j⟩ + v_j)`, its nonce from the mask's stream; an
/// unmasked one is the bare homomorphic product, for the packed run to
/// carry `v_j` as a plaintext addend and re-randomize by its word nonce.
fn dot_reply(
    keyholder_pk: &PublicKey,
    cts: &[Ciphertext],
    inverses: &[Ciphertext],
    ys_rows: &[Vec<BigInt>],
    mask_bound: &BigUint,
    masked: bool,
    ctx: &ProtocolContext,
) -> Result<Vec<(Ciphertext, BigInt)>, SmcError> {
    // A row is one multi-exponentiation over sign-folded bases — the
    // ciphertext, or its inverse for a negative coefficient — so its ladder
    // is as long as its coefficients (≤ 64 bits), whatever the key size;
    // the bytes match the per-row mul_plain_signed/add fold exactly.
    ys_rows
        .iter()
        .enumerate()
        .map(|(j, ys)| {
            let mut rng = ctx.rng_for(j as u64);
            let v = sample_mask(&mut rng, mask_bound);
            let product = keyholder_pk.dot_plain_signed(cts, inverses, ys);
            let row = if masked {
                keyholder_pk.add(&keyholder_pk.encrypt_signed(&v, &mut rng)?, &product)
            } else {
                product
            };
            Ok((row, v))
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
    use crate::test_helpers::{bob_keypair, ctx, keypair_1024, rng};
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

    /// A call's queries are checked by one batch inversion, and refused
    /// as they were one query at a time: a query that is no ciphertext
    /// vector anywhere in the call is a crypto error before any reply, and
    /// between a bad query and one whose rows do not fit it, the first in
    /// query order decides the error.
    #[test]
    fn a_bad_query_anywhere_in_a_dot_call_is_refused_before_any_reply() {
        let kp = bob_keypair();
        let good = |x: i64| kp.encrypt_signed(&bi(x), &mut rng(x as u64)).unwrap();
        let good = vec![good(1).as_biguint().clone(), good(2).as_biguint().clone()];
        let bad = vec![good[0].clone(), BigUint::zero()];
        let short = vec![good[0].clone()];
        let rows = vec![vec![bi(1), bi(1)]; 3];
        let cases = [
            (vec![good.clone(), bad.clone(), good.clone()], "crypto"),
            (vec![bad.clone(), short.clone(), good.clone()], "crypto"),
            (vec![short.clone(), bad.clone(), good.clone()], "protocol"),
            (vec![good.clone(), good.clone(), short], "protocol"),
        ];
        for (queries, want) in cases {
            let (mut kchan, mut pchan) = duplex();
            kchan.send_batch(&queries).unwrap();
            let err = dot_many_peer(
                &mut pchan,
                &kp.public,
                &rows,
                &[1, 1, 1],
                &BigUint::from_u64(10),
                None,
                |q| ctx(9).at(q as u64),
            )
            .unwrap_err();
            let got = match err {
                SmcError::Crypto(_) => "crypto",
                SmcError::Protocol(_) => "protocol",
                _ => "other",
            };
            assert_eq!(got, want, "{queries:?}: {err}");
            assert_eq!(pchan.metrics().bytes_sent, 0, "no reply");
        }
    }

    /// Query `q` is distance vector `q` of `points` against its own
    /// `per_query[q]` rows; returns the vectors and every row, back to back.
    fn distance_queries(
        points: &[[i64; 2]],
        per_query: &[usize],
    ) -> (Vec<Vec<BigInt>>, Vec<Vec<BigInt>>) {
        let (mut queries, mut rows) = (Vec::new(), Vec::new());
        for (q, (a, &count)) in points.iter().zip(per_query).enumerate() {
            let bobs: Vec<[i64; 2]> = (0..count as i64).map(|j| [j - q as i64, 2 * j]).collect();
            let (xs, ys) = distance_rows(*a, &bobs);
            queries.push(xs);
            rows.extend(ys);
        }
        (queries, rows)
    }

    /// One call of several queries between the real keyholder and peer;
    /// returns the shares, the masks and the peer's traffic.
    fn run_dot_queries(
        kp: &'static Keypair,
        queries: &[Vec<BigInt>],
        ys_rows: &[Vec<BigInt>],
        per_query: &[usize],
        packing: Option<&ResponsePacking>,
    ) -> (Vec<BigInt>, Vec<BigInt>, MetricsSnapshot) {
        let (mut kchan, mut pchan) = duplex();
        std::thread::scope(|scope| {
            let keyholder = scope.spawn(move || {
                let scopes = |q| ctx(14).at(q as u64);
                dot_many_keyholder(&mut kchan, kp, queries, per_query, packing, scopes).unwrap()
            });
            let bound = BigUint::from_u64(1 << 16);
            let scopes = |q| ctx(15).at(q as u64);
            let masks = dot_many_peer(
                &mut pchan, &kp.public, ys_rows, per_query, &bound, packing, scopes,
            )
            .unwrap();
            (keyholder.join().unwrap(), masks, pchan.metrics())
        })
    }

    /// Every share less its mask is the squared distance it blinds.
    fn assert_distances(
        queries: &[Vec<BigInt>],
        rows: &[Vec<BigInt>],
        per_query: &[usize],
        us: &[BigInt],
        masks: &[BigInt],
    ) {
        let mut j = 0;
        for (xs, &count) in queries.iter().zip(per_query) {
            for ys in &rows[j..j + count] {
                let dot = xs
                    .iter()
                    .zip(ys)
                    .fold(BigInt::zero(), |acc, (x, y)| &acc + &(x * y));
                assert_eq!(&us[j] - &masks[j], dot, "row {j}");
                j += 1;
            }
        }
        assert_eq!((us.len(), masks.len()), (j, j));
    }

    /// Five queries of three rows each at a 1024-bit key: the call's fifteen
    /// rows ride one word, where a word a query took five. The reply is
    /// one frame, counted as a message a query.
    #[test]
    fn a_call_of_five_queries_ships_one_word() {
        let kp = keypair_1024();
        let packing = ResponsePacking {
            layout: SlotLayout::new(kp.public.bits(), 34).unwrap(),
            offset: BigUint::from_u64((1 << 16) + 200),
        };
        assert_eq!(packing.layout.capacity(), 30);
        let per_query = [3usize; 5];
        let (queries, rows) =
            distance_queries(&[[1, 2], [0, 0], [5, -3], [2, 2], [-4, 1]], &per_query);
        assert_eq!(5 * packing.layout.words_for(3), 5, "a word a query before");

        // The keyholder's side by hand, to count the words of the run.
        let (mut kchan, mut pchan) = duplex();
        let cts: Vec<Vec<BigUint>> = queries
            .iter()
            .enumerate()
            .map(|(q, xs)| {
                let mut rng = ctx(14).at(q as u64).rng();
                xs.iter()
                    .map(|x| kp.encrypt_signed(x, &mut rng).unwrap().as_biguint().clone())
                    .collect()
            })
            .collect();
        kchan.send_batch(&cts).unwrap();
        let bound = BigUint::from_u64(1 << 16);
        let scopes = |q| ctx(15).at(q as u64);
        let masks = dot_many_peer(
            &mut pchan,
            &kp.public,
            &rows,
            &per_query,
            &bound,
            Some(&packing),
            scopes,
        )
        .unwrap();
        let run: Vec<BigUint> = kchan.recv_batch().unwrap();
        assert_eq!(run.len(), 1, "one word for fifteen rows");
        let sent = pchan.metrics();
        assert_eq!((sent.rounds_sent, sent.messages_sent), (1, 5));
        let us = packing.unpack_signed(kp, &run, 15).unwrap();
        assert_distances(&queries, &rows, &per_query, &us, &masks);
    }

    /// `capacity + 1` rows over two queries, the boundary between them
    /// inside the first word: two words, and every share reconstructs; the
    /// unpacked run carries the same shares, one ciphertext a row.
    #[test]
    fn a_query_boundary_inside_a_word_reconstructs_every_share() {
        let kp = bob_keypair();
        let packing = test_packing((1 << 16) + 200);
        let capacity = packing.layout.capacity();
        let per_query = [5, capacity - 4];
        let (queries, rows) = distance_queries(&[[3, 4], [-2, 7]], &per_query);
        let (us, masks, sent) = run_dot_queries(kp, &queries, &rows, &per_query, Some(&packing));
        assert_distances(&queries, &rows, &per_query, &us, &masks);
        assert_eq!((sent.rounds_sent, sent.messages_sent), (1, 2));
        let (plain, plain_masks, plain_sent) =
            run_dot_queries(kp, &queries, &rows, &per_query, None);
        assert_eq!((plain, plain_masks), (us, masks));
        assert_eq!((plain_sent.rounds_sent, plain_sent.messages_sent), (1, 2));
        assert!(plain_sent.bytes_sent > 4 * sent.bytes_sent);
    }

    /// A run one word (or one row) long or short is a protocol error at the
    /// querier before anything in it is decrypted: the words here are
    /// zeros, which decryption would refuse as a crypto error.
    #[test]
    fn a_run_of_the_wrong_length_is_refused_before_decryption() {
        let packing = test_packing((1 << 16) + 200);
        let capacity = packing.layout.capacity();
        let per_query = [2, capacity];
        let (queries, _) = distance_queries(&[[3, 4], [-2, 7]], &per_query);
        for (packing, due) in [(Some(&packing), 2), (None, capacity + 2)] {
            for sent in [due - 1, due + 1] {
                let (mut kchan, mut pchan) = duplex();
                pchan.send_batch(&vec![BigUint::zero(); sent]).unwrap();
                let err = dot_many_keyholder(
                    &mut kchan,
                    bob_keypair(),
                    &queries,
                    &per_query,
                    packing,
                    |q| ctx(16).at(q as u64),
                )
                .unwrap_err();
                assert!(
                    matches!(err, SmcError::Protocol(_)),
                    "{sent} for {due}, packed {}: {err}",
                    packing.is_some()
                );
            }
        }
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
