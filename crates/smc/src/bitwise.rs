//! Bitwise secure comparison in `O(log n0)` ciphertexts — the
//! Damgård–Geisler–Krøigaard (DGK)-style upgrade that experiment E3
//! identifies as the fix for Algorithm 1's `O(n0)` cost explosion on the
//! enhanced protocol's masked-share domains.
//!
//! Protocol (Alice holds `x`, Bob holds `y`, both `ℓ`-bit; Alice holds the
//! Paillier key):
//!
//! 1. Alice sends `E(x_i)` for every bit, most significant first.
//! 2. For each position `i` Bob homomorphically computes
//!    `c_i = x_i − y_i + 1 + 3·Σ_{j<i} (x_j ⊕ y_j)` — zero exactly when
//!    `x_i = 0`, `y_i = 1` and all more-significant bits agree, i.e. at the
//!    unique position witnessing `x < y`. (The XOR is computable because
//!    `y_j` is Bob's plaintext: `x ⊕ 0 = x`, `x ⊕ 1 = 1 − x`.)
//! 3. Bob masks each `c_i` with a fresh random scalar, re-randomizes,
//!    permutes, and returns the batch; Alice decrypts and learns whether a
//!    zero occurs — the comparison bit and nothing else (the permutation
//!    hides the witnessing position; the scalars hide the magnitudes).
//! 4. Alice tells Bob the conclusion, mirroring Algorithm 1 step 7.
//!
//! Communication: `2ℓ` ciphertexts + 1 bit, `ℓ = ⌈log₂ n0⌉` — versus
//! Algorithm 1's `n0` residues and `n0` decryptions. Both parties learn
//! exactly the comparison outcome, so the leakage profile (and therefore
//! every theorem downstream) is unchanged.
//!
//! Randomness: the mask scalars are value-rejection sampled and the
//! permutation is value-dependent, so under the old threaded-`StdRng`
//! discipline the *stream position* after a DGK call depended on the
//! inputs — the root cause of the batched-HDP leakage-order divergence.
//! Each comparison of a slice now draws from its own record scope
//! (`scopes(i)`, a [`ProtocolContext`]) and from nothing else, so the items
//! are order-independent and read the same whether a caller ships them in
//! one frame or one each.

use crate::context::ProtocolContext;
use crate::error::SmcError;
use ppds_bigint::{random, BigUint};
use ppds_paillier::{Ciphertext, Keypair, PublicKey, SlotLayout};
use ppds_transport::Channel;
use rand::seq::SliceRandom;
use rand::Rng;

/// Mask width for packed verdict slots: each masked cell `c·r` hides its
/// magnitude behind a uniform nonzero `r < 2^16`. The unpacked reply sizes
/// its scalars from the key instead (up to 64 bits) because a whole `Z_n`
/// plaintext is available per cell; a packed slot budgets its width, and 16
/// bits keeps the layout capacity high while staying in the same
/// multiplicative-masking class — Alice learns only whether a zero slot
/// exists either way (a zero survives any nonzero scalar, a non-zero never
/// becomes one).
pub const DGK_PACK_MASK_BITS: usize = 16;

/// Packed-reply layout for a DGK comparison over `domain_bound`: slots hold
/// `c·r` with `c ≤ 3ℓ+2` and `r < 2^16`, derived from public data only
/// (Alice's key size and the agreed domain), so both parties compute it
/// locally. `None` when the key is too small for even one slot — a packed
/// session then runs the unpacked reply, symmetrically.
pub fn dgk_pack_layout(key_bits: usize, domain_bound: u64) -> Option<SlotLayout> {
    let ell = bit_width(domain_bound);
    let max_cell = 3 * ell as u64 + 2;
    SlotLayout::for_masked_values(key_bits, bit_width(max_cell), DGK_PACK_MASK_BITS)
}

/// Bit width needed to represent `value` (at least 1).
fn bit_width(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).max(1)
}

/// Step 1 worker: Alice's `ell` encrypted input bits, MSB first.
fn encrypt_bits<R: Rng>(
    keypair: &Keypair,
    x: u64,
    ell: usize,
    mut rng: R,
) -> Result<Vec<BigUint>, SmcError> {
    let bits: Vec<BigUint> = (0..ell)
        .rev()
        .map(|i| BigUint::from_u64((x >> i) & 1))
        .collect();
    // Alice encrypts under her own key, so every nonce power is taken by
    // CRT; byte-identical to `keypair.public.encrypt_many` (same rng draws,
    // same residues).
    let cts = keypair.encrypt_many(&bits, &mut rng)?;
    Ok(cts.into_iter().map(|c| c.as_biguint().clone()).collect())
}

/// Step 3 worker: decrypt one masked, permuted comparison vector and report
/// whether a zero (the unique `x < y` witness) occurs.
fn scan_masked(keypair: &Keypair, masked: &[BigUint], ell: usize) -> Result<bool, SmcError> {
    if masked.len() != ell {
        return Err(SmcError::protocol(format!(
            "expected {ell} comparison values, got {}",
            masked.len()
        )));
    }
    let cts: Vec<Ciphertext> = masked
        .iter()
        .map(|raw| Ciphertext::from_biguint(raw.clone()))
        .collect();
    // One batch inversion validates all ℓ cells before the CRT decryptions.
    keypair.public.validate_many(&cts)?;
    let mut x_lt_y = false;
    for ct in &cts {
        let value = keypair.private.decrypt_crt_prevalidated(ct)?;
        if value.is_zero() {
            x_lt_y = true; // the unique witnessing position
        }
    }
    Ok(x_lt_y)
}

/// Step 2 core: the unmasked comparison cells
/// `c_i = x_i − y_i + 1 + 3·Σ_{j<i} (x_j ⊕ y_j)` under Alice's key, in bit
/// order — zero exactly at the unique position witnessing `x < y`. Shared
/// by the per-cell (unpacked) and packed-word reply builders.
fn comparison_cells(
    alice_pk: &PublicKey,
    raw_bits: &[BigUint],
    y: u64,
    ell: usize,
) -> Result<Vec<Ciphertext>, SmcError> {
    if raw_bits.len() != ell {
        return Err(SmcError::protocol(format!(
            "expected {ell} encrypted bits, got {}",
            raw_bits.len()
        )));
    }
    let x_bits: Vec<Ciphertext> = raw_bits
        .iter()
        .map(|raw| Ciphertext::from_biguint(raw.clone()))
        .collect();
    // Batch membership check: one Montgomery batch inversion mod n in place
    // of ℓ binary GCDs, accepting/rejecting exactly as the per-bit loop did.
    alice_pk.validate_many(&x_bits)?;
    // `1 − x_j` is `E(1)·x_j⁻¹`: one batch inversion per comparison serves
    // every set bit of `y` (validated units, so it cannot fail; a failure
    // would still surface as `InvalidCiphertext`).
    let inv_bits = alice_pk.negate_many(&x_bits)?;

    let one = BigUint::one();
    let enc_one = alice_pk.encrypt_with_nonce(&one, &one).expect("1 < n"); // deterministic E(1); masked before sending
    let three = BigUint::from_u64(3);

    // Running Σ (x_j ⊕ y_j) over the more-significant prefix, encrypted.
    let mut prefix_xor = alice_pk
        .encrypt_with_nonce(&BigUint::zero(), &one)
        .expect("0 < n");
    let mut cells = Vec::with_capacity(ell);
    for (pos, (enc_x, inv_x)) in x_bits.iter().zip(&inv_bits).enumerate() {
        let y_bit = (y >> (ell - 1 - pos)) & 1;
        // c = x − y + 1 + 3·prefix  (all arithmetic under Alice's key)
        let mut c = alice_pk.add(enc_x, &alice_pk.mul_plain(&prefix_xor, &three));
        if y_bit == 1 {
            // x − 1 + 1 = x … minus y(=1): c = x + 3w + 1 − 1 = x + 3w
            // (nothing to add: −y + 1 = 0)
        } else {
            c = alice_pk.add(&c, &enc_one); // −y + 1 = 1
        }
        cells.push(c);

        // Update the prefix XOR: x ⊕ y = x when y = 0, 1 − x when y = 1.
        let xor = if y_bit == 0 {
            enc_x.clone()
        } else {
            alice_pk.add(&enc_one, inv_x)
        };
        prefix_xor = alice_pk.add(&prefix_xor, &xor);
    }
    Ok(cells)
}

/// Step 2 worker: Bob's masked, permuted comparison vector for one input —
/// one ciphertext per cell.
fn masked_comparison_vector<R: Rng>(
    alice_pk: &PublicKey,
    raw_bits: &[BigUint],
    y: u64,
    ell: usize,
    mut rng: R,
) -> Result<Vec<BigUint>, SmcError> {
    let cells = comparison_cells(alice_pk, raw_bits, y, ell)?;
    let mut out = Vec::with_capacity(ell);
    for c in &cells {
        // Mask with a fresh nonzero scalar and re-randomize. The scalar is
        // sized so c·r (c ≤ 3ℓ+2) can never wrap mod n — a wrap could fake
        // a zero. Keys of ≥ 32 bits leave plenty of room.
        let r_bits = alice_pk.bits().saturating_sub(16).clamp(8, 64);
        let r = loop {
            let candidate = random::gen_biguint_bits(&mut rng, r_bits);
            if !candidate.is_zero() {
                break candidate;
            }
        };
        out.push(alice_pk.rerandomize(&alice_pk.mul_plain(c, &r), &mut rng));
    }

    // Permute so Alice cannot see which position witnessed the comparison.
    out.shuffle(&mut rng);
    Ok(out.iter().map(|c| c.as_biguint().clone()).collect())
}

/// Step 2 worker, packed form: the same masked cells, but permuted over
/// **slot positions** and packed `capacity` per word —
/// `⌈ℓ/capacity⌉` ciphertexts instead of `ℓ`. Cell `i` is masked by a
/// fresh nonzero `r_i` drawn from `ctx.rng_for(i)` (independently keyed
/// per cell, so the masks never depend on the permutation or on each
/// other), then cells and masks travel *together* through the permutation:
/// reply slot `s` holds `c_{σ(s)}·r_{σ(s)}`. The permutation `σ` draws
/// from the `"perm"` substream and each word is re-randomized by its
/// single packed-nonce encryption. Alice still learns exactly "a zero
/// slot exists" and nothing about its position.
fn masked_packed_vector(
    alice_pk: &PublicKey,
    raw_bits: &[BigUint],
    y: u64,
    ell: usize,
    layout: &SlotLayout,
    ctx: &ProtocolContext,
) -> Result<Vec<BigUint>, SmcError> {
    let cells = comparison_cells(alice_pk, raw_bits, y, ell)?;
    let masked: Vec<Ciphertext> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let r = SlotLayout::sample_slot_mask(&mut ctx.rng_for(i as u64), DGK_PACK_MASK_BITS);
            alice_pk.mul_plain(c, &r)
        })
        .collect();
    let mut order: Vec<usize> = (0..ell).collect();
    order.shuffle(&mut ctx.narrow("perm").rng());
    let permuted: Vec<Ciphertext> = order.into_iter().map(|i| masked[i].clone()).collect();
    let zeros = vec![BigUint::zero(); ell];
    let words =
        alice_pk.pack_ciphertexts(layout, &permuted, &zeros, &mut ctx.narrow("pack").rng())?;
    Ok(words.iter().map(|c| c.as_biguint().clone()).collect())
}

/// Step 3 worker, packed form: one CRT decryption per word, then a bit
/// split — `⌈ℓ/capacity⌉` decryptions instead of `ℓ`, through the shared
/// [`crate::multiplication::unpack_words`].
fn scan_packed(
    keypair: &Keypair,
    words: &[BigUint],
    ell: usize,
    layout: &SlotLayout,
) -> Result<bool, SmcError> {
    let slots = crate::multiplication::unpack_words(keypair, layout, words, ell)?;
    // A zero slot is the unique witnessing position.
    Ok(slots.iter().any(BigUint::is_zero))
}

/// Alice's side: inputs `xs`, learns whether `xs[i] < ys[i]` for each of
/// Bob's equally many inputs, in **three wire rounds** for the whole slice
/// (one frame of encrypted bits out, one frame of masked vectors back, one
/// frame of conclusions out). All inputs must be `< 2^63` (they are
/// domain-encoded comparison operands, far smaller).
///
/// Comparison `i` draws from `scopes(i)` alone, so outcomes, ciphertexts and
/// the leakage profile do not depend on how a caller cuts its comparisons
/// into slices. A one-item slice is the paper's single comparison: its
/// frames are the item's bytes and nothing else.
///
/// `layout` selects the packed reply ([`dgk_pack_layout`]; both sides derive
/// it from public data): the masked verdict vector arrives as
/// `⌈ℓ/capacity⌉` packed words instead of `ℓ` ciphertexts, so both the reply
/// bytes and Alice's decryption count shrink by the packing factor.
pub fn dgk_alice<C, S>(
    chan: &mut C,
    keypair: &Keypair,
    xs: &[u64],
    domain_bound: u64,
    layout: Option<&SlotLayout>,
    scopes: S,
) -> Result<Vec<bool>, SmcError>
where
    C: Channel,
    S: Fn(usize) -> ProtocolContext,
{
    if xs.is_empty() {
        return Ok(Vec::new());
    }
    let ell = bit_width(domain_bound);
    // Step 1: encrypted bits, MSB first.
    let bit_groups: Vec<Vec<BigUint>> = xs
        .iter()
        .enumerate()
        .map(|(i, &x)| encrypt_bits(keypair, x, ell, scopes(i).rng()))
        .collect::<Result<_, _>>()?;
    chan.send_batch(&bit_groups)?;

    // Step 3: decrypt the masked, permuted c_i values (or their words).
    let masked_groups: Vec<Vec<BigUint>> = chan.recv_batch()?;
    if masked_groups.len() != xs.len() {
        return Err(SmcError::protocol(format!(
            "expected {} masked comparison vectors, got {}",
            xs.len(),
            masked_groups.len()
        )));
    }
    let results: Vec<bool> = masked_groups
        .iter()
        .map(|masked| match layout {
            Some(layout) => scan_packed(keypair, masked, ell, layout),
            None => scan_masked(keypair, masked, ell),
        })
        .collect::<Result<_, _>>()?;
    // Step 4: tell Bob, mirroring Algorithm 1's final message.
    chan.send_batch(&results)?;
    Ok(results)
}

/// Bob's side of [`dgk_alice`]: inputs `ys`, learns whether `xs[i] < ys[i]`.
/// Comparison `i` draws its mask scalars and permutation from `scopes(i)`,
/// so each masked vector is independent of every other item's
/// value-dependent rejection sampling — the property that closed the old
/// batched-HDP leakage-order gap.
pub fn dgk_bob<C, S>(
    chan: &mut C,
    alice_pk: &PublicKey,
    ys: &[u64],
    domain_bound: u64,
    layout: Option<&SlotLayout>,
    scopes: S,
) -> Result<Vec<bool>, SmcError>
where
    C: Channel,
    S: Fn(usize) -> ProtocolContext,
{
    if ys.is_empty() {
        return Ok(Vec::new());
    }
    let ell = bit_width(domain_bound);
    let bit_groups: Vec<Vec<BigUint>> = chan.recv_batch()?;
    if bit_groups.len() != ys.len() {
        return Err(SmcError::protocol(format!(
            "expected {} encrypted bit groups, got {}",
            ys.len(),
            bit_groups.len()
        )));
    }
    let out_groups: Vec<Vec<BigUint>> = bit_groups
        .iter()
        .enumerate()
        .map(|(i, raw_bits)| match layout {
            Some(layout) => {
                masked_packed_vector(alice_pk, raw_bits, ys[i], ell, layout, &scopes(i))
            }
            None => masked_comparison_vector(alice_pk, raw_bits, ys[i], ell, scopes(i).rng()),
        })
        .collect::<Result<_, _>>()?;
    chan.send_batch(&out_groups)?;

    let results: Vec<bool> = chan.recv_batch()?;
    if results.len() != ys.len() {
        return Err(SmcError::protocol(format!(
            "expected {} conclusions, got {}",
            ys.len(),
            results.len()
        )));
    }
    Ok(results)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_helpers::{alice_keypair, ctx, rng};
    use ppds_transport::{duplex, MetricsSnapshot};

    /// Runs one slice of comparisons, item `i` scoped `ctx(seed).at(i)` on
    /// Alice's side and `ctx(seed + 1).at(i)` on Bob's; returns the verdicts
    /// both sides agree on and Alice's traffic.
    fn run(
        xs: &[u64],
        ys: &[u64],
        bound: u64,
        packed: bool,
        seed: u64,
    ) -> (Vec<bool>, MetricsSnapshot) {
        let layout = if packed {
            dgk_pack_layout(alice_keypair().public.bits(), bound)
        } else {
            None
        };
        let (mut achan, mut bchan) = duplex();
        let (actx, bctx) = (ctx(seed), ctx(seed + 1));
        std::thread::scope(|scope| {
            let layout = layout.as_ref();
            let alice = scope.spawn(move || {
                let kp = alice_keypair();
                let out = dgk_alice(&mut achan, kp, xs, bound, layout, |i| actx.at(i as u64));
                (out.unwrap(), achan.metrics())
            });
            let pk = &alice_keypair().public;
            let bob = dgk_bob(&mut bchan, pk, ys, bound, layout, |i| bctx.at(i as u64)).unwrap();
            let (alice, metrics) = alice.join().unwrap();
            assert_eq!(alice, bob, "views must agree");
            (alice, metrics)
        })
    }

    #[test]
    fn exhaustive_small_domain() {
        for packed in [false, true] {
            for x in 0..8u64 {
                let ys: Vec<u64> = (0..8).collect();
                let (got, _) = run(&[x; 8], &ys, 7, packed, 100 + x);
                for (y, lt) in ys.iter().zip(got) {
                    assert_eq!(lt, x < *y, "{x} < {y} (packed={packed})");
                }
            }
        }
    }

    #[test]
    fn wide_and_equal_values() {
        let bound = (1 << 40) - 1;
        let (xs, ys): (Vec<u64>, Vec<u64>) = [
            (0u64, 1u64),
            (1, 0),
            (123_456_789, 123_456_790),
            (123_456_790, 123_456_789),
            ((1 << 40) - 1, (1 << 40) - 1),
            (0, (1 << 40) - 1),
            ((1 << 40) - 1, 0),
            (1 << 39, (1 << 39) + 1),
            (5, 5),
        ]
        .into_iter()
        .unzip();
        for packed in [false, true] {
            let (got, _) = run(&xs, &ys, bound, packed, 7_000);
            for ((x, y), lt) in xs.iter().zip(&ys).zip(got) {
                assert_eq!(lt, x < y, "{x} < {y} (packed={packed})");
            }
        }
    }

    #[test]
    fn truncated_bit_vectors_are_protocol_errors() {
        let (mut achan, mut bchan) = duplex();
        // Fake Alice sends too few encrypted bits.
        let kp = alice_keypair();
        let mut r = rng(1);
        let short: Vec<BigUint> = vec![kp
            .public
            .encrypt(&BigUint::zero(), &mut r)
            .unwrap()
            .as_biguint()
            .clone()];
        achan.send(&short).unwrap();
        let err = dgk_bob(&mut bchan, &kp.public, &[3], 7, None, |_| ctx(1)).unwrap_err();
        assert!(matches!(err, SmcError::Protocol(_)));
    }

    #[test]
    fn a_slice_is_three_rounds_and_an_empty_one_none() {
        let xs: Vec<u64> = vec![0, 1, 400, 700, 1023, 512];
        let ys: Vec<u64> = vec![1, 0, 700, 700, 0, 513];
        let (_, metrics) = run(&xs, &ys, 1023, false, 40);
        assert_eq!((metrics.rounds_sent, metrics.rounds_received), (2, 1));
        assert_eq!(metrics.total_messages(), 3 * xs.len() as u64);
        let (none, metrics) = run(&[], &[], 7, false, 42);
        assert!(none.is_empty());
        assert_eq!(metrics.total_rounds(), 0);
    }

    #[test]
    fn packed_reply_ships_fewer_ciphertexts_and_decryptions() {
        // The packing claim at this layer: the reply leg collapses from ℓ
        // ciphertexts to ⌈ℓ/capacity⌉ words (with ℓ = 10 and 256-bit keys,
        // one word), so Alice's received bytes shrink accordingly.
        let bound = 1023u64; // ℓ = 10
        let layout = dgk_pack_layout(alice_keypair().public.bits(), bound).unwrap();
        assert!(layout.capacity() >= 10, "layout {layout:?}");
        let reply_bytes = |packed| run(&[400], &[700], bound, packed, 2).1.bytes_received;
        let (unpacked, packed) = (reply_bytes(false), reply_bytes(true));
        assert!(
            unpacked as f64 >= 5.0 * packed as f64,
            "reply bytes {unpacked} unpacked vs {packed} packed"
        );
    }

    #[test]
    fn tiny_keys_have_no_packed_layout() {
        // ℓ = 40 needs 24-bit slots: a 16-bit key has no layout, so both
        // sides of a packed session run the unpacked reply and still agree.
        assert!(dgk_pack_layout(16, (1 << 40) - 1).is_none());
        assert!(dgk_pack_layout(256, (1 << 40) - 1).is_some());
    }

    #[test]
    fn communication_is_logarithmic_in_domain() {
        // ℓ = 10 bits for n0 = 1023 → 20 ciphertexts total, versus the
        // faithful Yao protocol's 1023 residues (~16 KiB at 256-bit keys).
        let bound = 1023u64;
        let dgk_bytes = run(&[400], &[700], bound, false, 2).1.total_bytes();
        let (m1, m2, m3) = crate::millionaires::modeled_message_sizes(256, bound + 1);
        let yao_bytes = m1 + m2 + m3;
        assert!(
            dgk_bytes * 5 < yao_bytes,
            "DGK {dgk_bytes} B should be far below Yao {yao_bytes} B"
        );
    }
}
