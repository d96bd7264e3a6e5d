//! Bitwise secure comparison in `O(log n0)` ciphertexts: the
//! Damgård–Geisler–Krøigaard (DGK) protocol over the DGK cryptosystem
//! (`ppds_paillier::DgkPublicKey`), which experiment E3 identifies as the
//! fix for Algorithm 1's `O(n0)` cost explosion on the enhanced protocol's
//! masked-share domains.
//!
//! Protocol (Alice holds `x`, Bob holds `y`, both `ℓ`-bit; Alice holds the
//! DGK key, whose plaintext space is `Z_u` with `u = 193 > 3ℓ − 1` for
//! every `ℓ ≤ 64` — `DgkPublicKey::from_parts` refuses any other `u`):
//!
//! 1. Alice sends `E(x_i)` for every bit, most significant first.
//! 2. For each position `i` Bob homomorphically computes
//!    `c_i = x_i − y_i + 1 + 3·Σ_{j<i} (x_j ⊕ y_j)` — zero exactly when
//!    `x_i = 0`, `y_i = 1` and all more-significant bits agree, i.e. at the
//!    unique position witnessing `x < y`. Every term is non-negative and
//!    `c_i ≤ 3ℓ − 1 < u`, so a cell is zero mod `u` only when it is zero.
//!    (The XOR is computable because `y_j` is Bob's plaintext:
//!    `x ⊕ 0 = x`, `x ⊕ 1 = 1 − x`.)
//! 3. Bob raises each `c_i` to a fresh uniform scalar of `Z*_u`,
//!    re-randomizes it, permutes the cells, and returns them; Alice runs
//!    the zero test on each and learns whether a zero occurs — the
//!    comparison bit and nothing else (a nonzero cell times a uniform unit
//!    is uniform over `Z*_u`; the permutation hides the witnessing
//!    position).
//! 4. Alice tells Bob the conclusion, mirroring Algorithm 1 step 7.
//!
//! Communication: `2ℓ` ciphertexts mod `n` + 1 bit, `ℓ = ⌈log₂ n0⌉` —
//! versus Algorithm 1's `n0` residues and `n0` decryptions. Both parties
//! learn exactly the comparison outcome, so the leakage profile (and
//! therefore every theorem downstream) is unchanged.
//!
//! Randomness: each comparison of a slice draws from its own record scope
//! (`scopes(i)`, a [`ProtocolContext`]) and from nothing else — Bob's cell
//! `j` from `scopes(i).rng_for(j)`, his permutation from the `"perm"`
//! substream — so the items are order-independent and read the same
//! whether a caller ships them in one frame or one each.

use crate::context::ProtocolContext;
use crate::error::SmcError;
use ppds_bigint::BigUint;
use ppds_paillier::{DgkPrivateKey, DgkPublicKey};
use ppds_transport::Channel;
use rand::seq::SliceRandom;
use rand::Rng;

/// Bit width needed to represent `value` (at least 1).
fn bit_width(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).max(1)
}

/// Step 1 worker: Alice's `ell` encrypted input bits, MSB first, sealed
/// by her factors ([`DgkPrivateKey::encrypt`]).
fn encrypt_bits<R: Rng>(
    key: &DgkPrivateKey,
    x: u64,
    ell: usize,
    mut rng: R,
) -> Result<Vec<BigUint>, SmcError> {
    (0..ell)
        .rev()
        .map(|i| Ok(key.encrypt((x >> i) & 1, &mut rng)?))
        .collect()
}

/// Step 3 worker: the zero test on each of Bob's cells — whether a zero
/// (the unique `x < y` witness) occurs. A cell outside the ciphertext
/// group is a typed error.
fn scan_cells(key: &DgkPrivateKey, cells: &[BigUint], ell: usize) -> Result<bool, SmcError> {
    if cells.len() != ell {
        return Err(SmcError::protocol(format!(
            "expected {ell} comparison values, got {}",
            cells.len()
        )));
    }
    let mut x_lt_y = false;
    for cell in cells {
        // Every cell is tested, so the time taken does not tell where the
        // witness sat.
        x_lt_y |= key.is_zero(cell)?;
    }
    Ok(x_lt_y)
}

/// Step 2 worker: Bob's masked, re-randomized, permuted cells for one
/// input. Cell `j` is `c_j^{r_j} · h^{s_j}` with `r_j` uniform in
/// `1..u`, then `s_j`, drawn from `ctx.rng_for(j)`
/// ([`DgkPublicKey::mask`]); the permutation draws from the `"perm"`
/// substream.
///
/// The running sums stay in Montgomery form mod `n`: a homomorphic
/// addition is one product, `3·(x ⊕ y)` a square and a product, and
/// each cell leaves the form in the comb scan that masks it.
fn masked_cells(
    alice: &DgkPublicKey,
    bits: &[BigUint],
    y: u64,
    ell: usize,
    ctx: &ProtocolContext,
) -> Result<Vec<BigUint>, SmcError> {
    if bits.len() != ell {
        return Err(SmcError::protocol(format!(
            "expected {ell} encrypted bits, got {}",
            bits.len()
        )));
    }
    // One batch inversion checks every bit is a unit of Z_n and yields the
    // `E(−x_j)` the XOR with a set bit of `y` needs.
    let inverses = alice.negate_many(bits)?;
    let mont = alice.montgomery();
    let g = mont.to_mont(alice.g());
    // Running 3·Σ (x_j ⊕ y_j) over the more-significant prefix, encrypted;
    // it starts as the trivial `E(0) = 1`.
    let mut prefix = mont.one_mont().clone();
    let mut cells = Vec::with_capacity(ell);
    for (pos, (enc_x, inv_x)) in bits.iter().zip(&inverses).enumerate() {
        let y_bit = (y >> (ell - 1 - pos)) & 1;
        let x = mont.to_mont(enc_x);
        // c = x − y + 1 + 3·Σ: `x + prefix`, plus 1 when y = 0.
        let mut cell = mont.mont_mul(&x, &prefix);
        // x ⊕ y is x when y = 0, 1 − x when y = 1.
        let xor = if y_bit == 0 {
            cell = mont.mont_mul(&cell, &g);
            x
        } else {
            mont.mont_mul(&mont.to_mont(inv_x), &g)
        };
        prefix = mont.mont_mul(&prefix, &mont.mont_mul(&mont.mont_sqr(&xor), &xor));
        cells.push(alice.mask(&cell, &mut ctx.rng_for(pos as u64)));
    }
    cells.shuffle(&mut ctx.narrow("perm").rng());
    Ok(cells)
}

/// Alice's side: inputs `xs`, learns whether `xs[i] < ys[i]` for each of
/// Bob's equally many inputs, in **three wire rounds** for the whole slice
/// (one frame of encrypted bits out, one frame of masked cells back, one
/// frame of conclusions out). All inputs must be `< 2^63` (they are
/// domain-encoded comparison operands, far smaller).
///
/// Comparison `i` draws from `scopes(i)` alone, so outcomes, ciphertexts and
/// the leakage profile do not depend on how a caller cuts its comparisons
/// into slices. A one-item slice is the paper's single comparison: its
/// frames are the item's bytes and nothing else.
pub fn dgk_alice<C, S>(
    chan: &mut C,
    key: &DgkPrivateKey,
    xs: &[u64],
    domain_bound: u64,
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
        .map(|(i, &x)| encrypt_bits(key, x, ell, scopes(i).rng()))
        .collect::<Result<_, _>>()?;
    chan.send_batch(&bit_groups)?;

    // Step 3: the zero test on the masked, permuted cells.
    let cell_groups: Vec<Vec<BigUint>> = chan.recv_batch()?;
    if cell_groups.len() != xs.len() {
        return Err(SmcError::protocol(format!(
            "expected {} masked comparison vectors, got {}",
            xs.len(),
            cell_groups.len()
        )));
    }
    let results: Vec<bool> = cell_groups
        .iter()
        .map(|cells| scan_cells(key, cells, ell))
        .collect::<Result<_, _>>()?;
    // Step 4: tell Bob, mirroring Algorithm 1's final message.
    chan.send_batch(&results)?;
    Ok(results)
}

/// Bob's side of [`dgk_alice`]: inputs `ys`, learns whether `xs[i] < ys[i]`
/// under Alice's DGK public key `alice`. Comparison `i` draws its mask
/// scalars, randomizers and permutation from `scopes(i)`, so each reply is
/// independent of every other item's draws.
pub fn dgk_bob<C, S>(
    chan: &mut C,
    alice: &DgkPublicKey,
    ys: &[u64],
    domain_bound: u64,
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
    let cell_groups: Vec<Vec<BigUint>> = bit_groups
        .iter()
        .enumerate()
        .map(|(i, bits)| masked_cells(alice, bits, ys[i], ell, &scopes(i)))
        .collect::<Result<_, _>>()?;
    chan.send_batch(&cell_groups)?;

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
    use crate::test_helpers::{alice_keypair, ctx, keypair_1024, rng};
    use ppds_paillier::Keypair;
    use ppds_transport::{duplex, MetricsSnapshot};
    use std::sync::OnceLock;

    fn dgk_key() -> &'static DgkPrivateKey {
        alice_keypair().private.dgk().unwrap()
    }

    /// The DGK half of a deployment-size (1024-bit) key: `t = 160`.
    fn dgk_key_1024() -> &'static DgkPrivateKey {
        keypair_1024().private.dgk().unwrap()
    }

    /// Runs one slice of comparisons under `key`, item `i` scoped
    /// `ctx(seed).at(i)` on Alice's side and `ctx(seed + 1).at(i)` on Bob's;
    /// returns the verdicts both sides agree on and Alice's traffic.
    fn run_under(
        key: &'static DgkPrivateKey,
        xs: &[u64],
        ys: &[u64],
        bound: u64,
        seed: u64,
    ) -> (Vec<bool>, MetricsSnapshot) {
        let (mut achan, mut bchan) = duplex();
        let (actx, bctx) = (ctx(seed), ctx(seed + 1));
        std::thread::scope(|scope| {
            let alice = scope.spawn(move || {
                let out = dgk_alice(&mut achan, key, xs, bound, |i| actx.at(i as u64));
                (out.unwrap(), achan.metrics())
            });
            let bob = dgk_bob(&mut bchan, key.public(), ys, bound, |i| bctx.at(i as u64)).unwrap();
            let (alice, metrics) = alice.join().unwrap();
            assert_eq!(alice, bob, "views must agree");
            (alice, metrics)
        })
    }

    /// [`run_under`] the 256-bit test key.
    fn run(xs: &[u64], ys: &[u64], bound: u64, seed: u64) -> (Vec<bool>, MetricsSnapshot) {
        run_under(dgk_key(), xs, ys, bound, seed)
    }

    /// Bob's cells as they were computed before the Montgomery-form scan:
    /// `rerandomize(mul_plain(add(…), r))`, each step a separate product
    /// or ladder mod `n`, with the same draws — `r`, then `s`, from
    /// `rng_for(pos)` — and the same permutation.
    fn reference_cells(
        alice: &DgkPublicKey,
        bits: &[BigUint],
        y: u64,
        ell: usize,
        ctx: &ProtocolContext,
    ) -> Vec<BigUint> {
        let ((_, _, h), (_, t)) = alice.to_parts();
        let inverses = alice.negate_many(bits).unwrap();
        let mut prefix = BigUint::one();
        let mut cells = Vec::new();
        for (pos, (enc_x, inv_x)) in bits.iter().zip(&inverses).enumerate() {
            let y_bit = (y >> (ell - 1 - pos)) & 1;
            let mut cell = alice.add(enc_x, &prefix);
            let xor = if y_bit == 0 {
                cell = alice.add(&cell, alice.g());
                enc_x.clone()
            } else {
                alice.add(inv_x, alice.g())
            };
            prefix = alice.add(&prefix, &alice.mul_plain(&xor, 3));
            let mut rng = ctx.rng_for(pos as u64);
            let r = rng.random_range(1..alice.u());
            let s = ppds_bigint::random::gen_biguint_bits(&mut rng, t as usize * 5 / 2);
            let rerandomized = alice.add(
                &alice.mul_plain(&cell, r),
                &alice.montgomery().pow_mod(&h, &s),
            );
            cells.push(rerandomized);
        }
        cells.shuffle(&mut ctx.narrow("perm").rng());
        cells
    }

    /// The Montgomery-form cells are the reference chain's, byte for byte:
    /// random `y` against random encrypted `x`, at `ℓ ∈ {1, 2, 33, 64}` and
    /// 256-, 512- and 1024-bit keys. A changed draw order or residue moves
    /// a cell.
    #[test]
    fn cells_equal_the_reference_chain() {
        static KP512: OnceLock<Keypair> = OnceLock::new();
        let key_512 = KP512
            .get_or_init(|| Keypair::generate(512, &mut rng(0x512)))
            .private
            .dgk()
            .unwrap();
        let mut draws = rng(0xCE11);
        for (key, bits) in [(dgk_key(), 256), (key_512, 512), (dgk_key_1024(), 1024)] {
            let alice = key.public();
            assert_eq!(alice.bits(), bits);
            for ell in [1usize, 2, 33, 64] {
                let top = if ell == 64 { u64::MAX } else { (1 << ell) - 1 };
                for trial in 0..2u64 {
                    let (x, y) = (draws.random::<u64>() & top, draws.random::<u64>() & top);
                    let enc = encrypt_bits(key, x, ell, ctx(trial).rng()).unwrap();
                    let scope = ctx(0xB0B).at(ell as u64 * 10 + trial);
                    assert_eq!(
                        masked_cells(alice, &enc, y, ell, &scope).unwrap(),
                        reference_cells(alice, &enc, y, ell, &scope),
                        "{bits}-bit key, ℓ = {ell}, x = {x}, y = {y}"
                    );
                }
            }
        }
    }

    #[test]
    fn exhaustive_small_domain() {
        for key in [dgk_key(), dgk_key_1024()] {
            for x in 0..8u64 {
                let ys: Vec<u64> = (0..8).collect();
                let (got, _) = run_under(key, &[x; 8], &ys, 7, 100 + x);
                for (y, lt) in ys.iter().zip(got) {
                    assert_eq!(lt, x < *y, "{x} < {y} at {} bits", key.public().bits());
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
        for key in [dgk_key(), dgk_key_1024()] {
            let bits = key.public().bits();
            let (got, _) = run_under(key, &xs, &ys, bound, 7_000);
            for ((x, y), lt) in xs.iter().zip(&ys).zip(got) {
                assert_eq!(lt, x < y, "{x} < {y} at {bits} bits");
            }
            // The widest domain a u64 operand has: ℓ = 64, cells up to
            // 191 < u. Equal high halves put the witness at the last bit.
            let (xs, ys) = ([u64::MAX - 1, 3, 1 << 63], [u64::MAX, 3, (1 << 63) + 1]);
            let (got, _) = run_under(key, &xs, &ys, u64::MAX, 7_100);
            assert_eq!(got, vec![true, false, true], "at {bits} bits");
        }
    }

    #[test]
    fn truncated_bit_vectors_are_protocol_errors() {
        let (mut achan, mut bchan) = duplex();
        // Fake Alice sends too few encrypted bits.
        let short = vec![dgk_key().public().encrypt(0, &mut ctx(1).rng()).unwrap()];
        achan.send(&short).unwrap();
        let err = dgk_bob(&mut bchan, dgk_key().public(), &[3], 7, |_| ctx(1)).unwrap_err();
        assert!(matches!(err, SmcError::Protocol(_)));
    }

    /// A cell that is no ciphertext of Alice's key — out of range, or off
    /// the ciphertext subgroup mod `p` — is a typed error on her side, as is
    /// a bit that is no unit of `Z_n` on Bob's.
    #[test]
    fn malformed_cells_and_bits_are_typed_errors() {
        let key = dgk_key();
        let n = key.public().n().clone();
        let good = key.public().encrypt(1, &mut ctx(2).rng()).unwrap();
        for bad in [n.clone(), BigUint::zero(), BigUint::from_u64(2)] {
            let (mut achan, mut bchan) = duplex();
            bchan
                .send_batch(&[vec![good.clone(), bad.clone(), good.clone()]])
                .unwrap();
            let err = dgk_alice(&mut achan, key, &[1], 7, |_| ctx(3)).unwrap_err();
            assert!(matches!(err, SmcError::Crypto(_)), "{bad:?}: {err}");
        }
        for bad in [n, BigUint::zero()] {
            let (mut achan, mut bchan) = duplex();
            achan
                .send_batch(&[vec![good.clone(), bad.clone(), good.clone()]])
                .unwrap();
            let err = dgk_bob(&mut bchan, key.public(), &[3], 7, |_| ctx(4)).unwrap_err();
            assert!(matches!(err, SmcError::Crypto(_)), "{bad:?}: {err}");
        }
    }

    #[test]
    fn a_slice_is_three_rounds_and_an_empty_one_none() {
        let xs: Vec<u64> = vec![0, 1, 400, 700, 1023, 512];
        let ys: Vec<u64> = vec![1, 0, 700, 700, 0, 513];
        let (_, metrics) = run(&xs, &ys, 1023, 40);
        assert_eq!((metrics.rounds_sent, metrics.rounds_received), (2, 1));
        assert_eq!(metrics.total_messages(), 3 * xs.len() as u64);
        let (none, metrics) = run(&[], &[], 7, 42);
        assert!(none.is_empty());
        assert_eq!(metrics.total_rounds(), 0);
    }

    /// Each direction carries `ℓ` ciphertexts mod `n`, half a Paillier
    /// ciphertext's width each: `ℓ·(4 + ⌈bits/8⌉)` bytes both ways for one
    /// comparison, plus the frame headers and Alice's verdict.
    #[test]
    fn each_direction_is_ell_ciphertexts_mod_n() {
        let bound = 1023u64; // ℓ = 10
        let (_, m) = run(&[400], &[700], bound, 2);
        let width = 4 + dgk_key().public().bits().div_ceil(8) as u64;
        let slack = 2 * ppds_transport::FRAME_OVERHEAD_BYTES + 8;
        for bytes in [
            m.bytes_sent - 1 - ppds_transport::FRAME_OVERHEAD_BYTES,
            m.bytes_received,
        ] {
            assert!(
                (10 * (width - 1)..=10 * width + slack).contains(&bytes),
                "{bytes} B for 10 cells of {width} B"
            );
        }
    }

    #[test]
    fn communication_is_logarithmic_in_domain() {
        // ℓ = 10 bits for n0 = 1023 → 20 ciphertexts total, versus the
        // faithful Yao protocol's 1023 residues (~16 KiB at 256-bit keys).
        let bound = 1023u64;
        let dgk_bytes = run(&[400], &[700], bound, 2).1.total_bytes();
        let (m1, m2, m3) = crate::millionaires::modeled_message_sizes(256, bound + 1);
        let yao_bytes = m1 + m2 + m3;
        assert!(
            dgk_bytes * 5 < yao_bytes,
            "DGK {dgk_bytes} B should be far below Yao {yao_bytes} B"
        );
    }
}
