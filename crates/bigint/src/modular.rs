//! Modular arithmetic helpers: exponentiation, inverse, GCD and LCM.

use crate::bigint::{BigInt, Sign};
use crate::biguint::BigUint;
use crate::montgomery::MontgomeryCtx;

/// `base^exp mod modulus`.
///
/// Uses Montgomery exponentiation for odd moduli (the only case the
/// Paillier hot path needs — `n` and `n²` are always odd) and falls back
/// to square-and-multiply with a shared Barrett reduction for even moduli
/// so the function is total. The fallback triggers only outside the
/// ciphertext pipeline: power-of-two moduli in tests, DGK-style `u`
/// values, and other even-modulus callers. It precomputes
/// `μ = ⌊2^{2k}/m⌋` once and reduces each step with two multiplies and at
/// most two correction subtractions instead of a full long division, so
/// even-modulus exponentiation costs the same per-step work shape as the
/// Montgomery path.
///
/// # Panics
/// Panics if `modulus` is zero.
pub fn mod_pow(base: &BigUint, exp: &BigUint, modulus: &BigUint) -> BigUint {
    assert!(!modulus.is_zero(), "mod_pow with zero modulus");
    if modulus.is_one() {
        return BigUint::zero();
    }
    if let Some(ctx) = MontgomeryCtx::new(modulus) {
        return ctx.pow_mod(base, exp);
    }
    // Even modulus fallback: Barrett square-and-multiply.
    let barrett = BarrettCtx::new(modulus);
    let mut acc = BigUint::one();
    let base = base % modulus;
    for i in (0..exp.bit_length()).rev() {
        acc = barrett.reduce(&acc.square());
        if exp.bit(i) {
            acc = barrett.reduce(&(&acc * &base));
        }
    }
    acc
}

/// Barrett reduction state for a fixed modulus of any parity.
///
/// Montgomery form needs an odd modulus; Barrett does not, which makes it
/// the right reduction for `mod_pow`'s even-modulus fallback. With
/// `k = bit_length(m)` and `μ = ⌊2^{2k}/m⌋` precomputed once,
/// `reduce(x)` for `x < m²` estimates the quotient as
/// `q̂ = ⌊⌊x/2^{k−1}⌋ · μ / 2^{k+1}⌋ ≤ ⌊x/m⌋`, subtracts `q̂·m`, and
/// corrects with at most two conditional subtractions — two big
/// multiplies per reduction in place of a full division.
struct BarrettCtx {
    modulus: BigUint,
    /// `bit_length(modulus)`.
    k: usize,
    /// `⌊2^{2k} / modulus⌋`.
    mu: BigUint,
}

impl BarrettCtx {
    /// Precomputes `μ` for `modulus > 1`.
    fn new(modulus: &BigUint) -> Self {
        debug_assert!(!modulus.is_zero() && !modulus.is_one());
        let k = modulus.bit_length();
        let mu = &(&BigUint::one() << (2 * k)) / modulus;
        BarrettCtx {
            modulus: modulus.clone(),
            k,
            mu,
        }
    }

    /// `x mod modulus` for `x < modulus²` (hence `x < 2^{2k}`).
    fn reduce(&self, x: &BigUint) -> BigUint {
        debug_assert!(x.bit_length() <= 2 * self.k);
        let q_hat = &(&(x >> (self.k - 1)) * &self.mu) >> (self.k + 1);
        let mut r = x
            .checked_sub(&(&q_hat * &self.modulus))
            .expect("Barrett quotient estimate never exceeds the true quotient");
        while r >= self.modulus {
            r = r
                .checked_sub(&self.modulus)
                .expect("r >= modulus just checked");
        }
        debug_assert_eq!(&r, &(x % &self.modulus));
        r
    }
}

/// Greatest common divisor (binary GCD).
pub fn gcd(a: &BigUint, b: &BigUint) -> BigUint {
    if a.is_zero() {
        return b.clone();
    }
    if b.is_zero() {
        return a.clone();
    }
    let mut a = a.clone();
    let mut b = b.clone();
    let shift_a = a.trailing_zeros().expect("a nonzero");
    let shift_b = b.trailing_zeros().expect("b nonzero");
    let common = shift_a.min(shift_b);
    a = &a >> shift_a;
    b = &b >> shift_b;
    // Both odd now.
    loop {
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        b -= &a; // b >= a, result even or zero
        if b.is_zero() {
            return &a << common;
        }
        b = &b >> b.trailing_zeros().expect("b nonzero");
    }
}

/// Least common multiple; `lcm(0, x) = 0`.
pub fn lcm(a: &BigUint, b: &BigUint) -> BigUint {
    if a.is_zero() || b.is_zero() {
        return BigUint::zero();
    }
    let g = gcd(a, b);
    &(a / &g) * b
}

/// Extended Euclid: returns `(g, x, y)` with `a·x + b·y = g = gcd(a, b)`.
pub fn extended_gcd(a: &BigUint, b: &BigUint) -> (BigUint, BigInt, BigInt) {
    let mut old_r = BigInt::from_biguint(Sign::Positive, a.clone());
    let mut r = BigInt::from_biguint(Sign::Positive, b.clone());
    let mut old_s = BigInt::one();
    let mut s = BigInt::zero();
    let mut old_t = BigInt::zero();
    let mut t = BigInt::one();

    while !r.is_zero() {
        let (q, rem) = old_r.div_rem(&r);
        old_r = std::mem::replace(&mut r, rem);
        let new_s = &old_s - &(&q * &s);
        old_s = std::mem::replace(&mut s, new_s);
        let new_t = &old_t - &(&q * &t);
        old_t = std::mem::replace(&mut t, new_t);
    }
    (old_r.into_magnitude(), old_s, old_t)
}

/// `a^{-1} mod modulus`, or `None` when `gcd(a, modulus) != 1`.
///
/// # Panics
/// Panics if `modulus` is zero.
pub fn mod_inverse(a: &BigUint, modulus: &BigUint) -> Option<BigUint> {
    assert!(!modulus.is_zero(), "mod_inverse with zero modulus");
    if modulus.is_one() {
        return Some(BigUint::zero());
    }
    let a = a % modulus;
    if a.is_zero() {
        return None;
    }
    let (g, x, _) = extended_gcd(&a, modulus);
    if !g.is_one() {
        return None;
    }
    Some(x.rem_euclid(modulus))
}

/// `(a * b) mod modulus` without intermediate growth beyond one product.
pub fn mod_mul(a: &BigUint, b: &BigUint, modulus: &BigUint) -> BigUint {
    &(a * b) % modulus
}

/// Montgomery's batch-inversion trick: inverts every element of `values`
/// modulo `modulus` with **one** extended-GCD inversion plus `3(k−1)`
/// modular multiplications, instead of `k` extended GCDs.
///
/// Prefix products `p_i = v_0·…·v_i` are built left to right, the single
/// inverse `(p_{k-1})^{-1}` is computed, and each `v_i^{-1}` is recovered
/// by back-substitution (`v_i^{-1} = p_{k-1}^{-1}·…` running product).
/// For odd moduli the multiplications run in the Montgomery domain, so a
/// batch of `k` costs ≈ `4k` Montgomery products + one inversion.
///
/// Returns `None` when **any** element is zero or shares a factor with
/// the modulus — exactly the elements for which [`mod_inverse`] returns
/// `None` — because a single non-unit poisons the chained product. Each
/// returned inverse is the canonical residue [`mod_inverse`] produces.
///
/// # Panics
/// Panics if `modulus` is zero.
pub fn batch_mod_inverse(values: &[BigUint], modulus: &BigUint) -> Option<Vec<BigUint>> {
    assert!(!modulus.is_zero(), "batch_mod_inverse with zero modulus");
    if modulus.is_one() {
        return Some(vec![BigUint::zero(); values.len()]);
    }
    if values.is_empty() {
        return Some(Vec::new());
    }
    if let Some(ctx) = MontgomeryCtx::new(modulus) {
        batch_mod_inverse_with(&ctx, values)
    } else {
        // Even modulus: same chain with plain reductions.
        let vals: Vec<BigUint> = values.iter().map(|v| v % modulus).collect();
        let mut prefix = Vec::with_capacity(vals.len());
        prefix.push(vals[0].clone());
        for v in &vals[1..] {
            let next = mod_mul(prefix.last().expect("nonempty"), v, modulus);
            prefix.push(next);
        }
        let inv_total = mod_inverse(prefix.last().expect("nonempty"), modulus)?;
        let mut inv_running = inv_total;
        let mut out = vec![BigUint::zero(); vals.len()];
        for i in (1..vals.len()).rev() {
            out[i] = mod_mul(&inv_running, &prefix[i - 1], modulus);
            inv_running = mod_mul(&inv_running, &vals[i], modulus);
        }
        out[0] = inv_running;
        Some(out)
    }
}

/// [`batch_mod_inverse`] against a caller-held [`MontgomeryCtx`], so
/// repeat batches under one fixed odd modulus (a Paillier key's `n`)
/// skip rebuilding the context's `R²` table on every call.
pub fn batch_mod_inverse_with(ctx: &MontgomeryCtx, values: &[BigUint]) -> Option<Vec<BigUint>> {
    let modulus = ctx.modulus();
    if values.is_empty() {
        return Some(Vec::new());
    }
    // Montgomery chain: to_mont each value once, multiply in-domain.
    let mut scratch = ctx.scratch();
    let vals: Vec<Vec<u64>> = values
        .iter()
        .map(|v| ctx.to_mont_limbs(v, &mut scratch))
        .collect();
    let mut prefix = Vec::with_capacity(vals.len());
    prefix.push(vals[0].clone());
    for v in &vals[1..] {
        let mut next: Vec<u64> = prefix.last().expect("nonempty").clone();
        ctx.mul_assign(&mut next, v, &mut scratch);
        prefix.push(next);
    }
    let total = ctx.out_of_mont(prefix.last().expect("nonempty"), &mut scratch);
    let inv_total = mod_inverse(&total, modulus)?;
    let mut inv_running = ctx.to_mont_limbs(&inv_total, &mut scratch);
    let mut out = vec![BigUint::zero(); vals.len()];
    for i in (1..vals.len()).rev() {
        // prefix[i-1] has no later reader: it becomes v_i^{-1} in place.
        ctx.mul_assign(&mut prefix[i - 1], &inv_running, &mut scratch);
        out[i] = ctx.out_of_mont(&prefix[i - 1], &mut scratch);
        ctx.mul_assign(&mut inv_running, &vals[i], &mut scratch);
    }
    out[0] = ctx.out_of_mont(&inv_running, &mut scratch);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::{gen_biguint_below, gen_biguint_bits};
    use crate::test_helpers::rng;

    fn b(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn mod_pow_basic() {
        assert_eq!(mod_pow(&b(2), &b(10), &b(1000)), b(24));
        assert_eq!(mod_pow(&b(2), &b(10), &b(1)), b(0));
        assert_eq!(mod_pow(&b(0), &b(0), &b(7)), b(1)); // 0^0 = 1 convention
        assert_eq!(mod_pow(&b(5), &b(0), &b(7)), b(1));
    }

    #[test]
    fn mod_pow_even_modulus_fallback() {
        assert_eq!(mod_pow(&b(3), &b(4), &b(100)), b(81));
        assert_eq!(
            mod_pow(&b(7), &b(13), &b(1 << 40)),
            b(7u128.pow(13) % (1 << 40))
        );
    }

    #[test]
    fn gcd_cases() {
        assert_eq!(gcd(&b(0), &b(5)), b(5));
        assert_eq!(gcd(&b(5), &b(0)), b(5));
        assert_eq!(gcd(&b(0), &b(0)), b(0));
        assert_eq!(gcd(&b(12), &b(18)), b(6));
        assert_eq!(gcd(&b(17), &b(13)), b(1));
        assert_eq!(gcd(&b(1 << 30), &b(1 << 20)), b(1 << 20));
        assert_eq!(gcd(&b(2 * 3 * 5 * 7), &b(3 * 7 * 11)), b(21));
    }

    #[test]
    fn gcd_matches_euclid_random() {
        let mut r = rng(31);
        for _ in 0..25 {
            let a = gen_biguint_bits(&mut r, 256);
            let bb = gen_biguint_bits(&mut r, 200);
            let g = gcd(&a, &bb);
            if !a.is_zero() && !bb.is_zero() {
                assert!((&a % &g).is_zero());
                assert!((&bb % &g).is_zero());
            }
            // Classical Euclid cross-check.
            let mut x = a.clone();
            let mut y = bb.clone();
            while !y.is_zero() {
                let rem = &x % &y;
                x = std::mem::replace(&mut y, rem);
            }
            assert_eq!(g, x);
        }
    }

    #[test]
    fn lcm_cases() {
        assert_eq!(lcm(&b(4), &b(6)), b(12));
        assert_eq!(lcm(&b(0), &b(6)), b(0));
        assert_eq!(lcm(&b(7), &b(13)), b(91));
    }

    #[test]
    fn extended_gcd_bezout_identity() {
        let mut r = rng(32);
        for _ in 0..20 {
            let a = gen_biguint_bits(&mut r, 192);
            let bb = gen_biguint_bits(&mut r, 160);
            let (g, x, y) = extended_gcd(&a, &bb);
            let lhs = &(&BigInt::from_biguint(Sign::Positive, a.clone()) * &x)
                + &(&BigInt::from_biguint(Sign::Positive, bb.clone()) * &y);
            assert_eq!(lhs, BigInt::from_biguint(Sign::Positive, g));
        }
    }

    #[test]
    fn mod_inverse_round_trips() {
        let m = b(1_000_000_007);
        for v in [1u128, 2, 3, 999, 1_000_000_006] {
            let inv = mod_inverse(&b(v), &m).expect("prime modulus");
            assert_eq!(&(&b(v) * &inv) % &m, b(1), "v = {v}");
        }
    }

    #[test]
    fn mod_inverse_nonexistent() {
        assert_eq!(mod_inverse(&b(6), &b(9)), None);
        assert_eq!(mod_inverse(&b(0), &b(9)), None);
        assert_eq!(mod_inverse(&b(9), &b(9)), None);
    }

    #[test]
    fn mod_inverse_modulus_one() {
        assert_eq!(mod_inverse(&b(5), &b(1)), Some(b(0)));
    }

    #[test]
    fn mod_inverse_random_odd_moduli() {
        let mut r = rng(33);
        for _ in 0..15 {
            let mut m = gen_biguint_bits(&mut r, 384);
            m.set_bit(0, true);
            if m.is_one() {
                continue;
            }
            let a = gen_biguint_below(&mut r, &m);
            match mod_inverse(&a, &m) {
                Some(inv) => {
                    assert!(inv < m);
                    assert_eq!(mod_mul(&a, &inv, &m), BigUint::one());
                }
                None => assert!(!gcd(&a, &m).is_one()),
            }
        }
    }

    #[test]
    fn mod_pow_even_modulus_matches_plain_reduction() {
        // The Barrett fallback must be value-identical to full division.
        let mut r = rng(35);
        for bits in [16usize, 64, 256] {
            let mut m = gen_biguint_bits(&mut r, bits);
            m.set_bit(0, false); // force even
            if m.is_zero() || m.is_one() {
                continue;
            }
            for _ in 0..6 {
                let base = gen_biguint_bits(&mut r, bits + 8);
                let exp = gen_biguint_bits(&mut r, 48);
                let got = mod_pow(&base, &exp, &m);
                let mut want = BigUint::one();
                for i in (0..exp.bit_length()).rev() {
                    want = &want.square() % &m;
                    if exp.bit(i) {
                        want = &(&want * &base) % &m;
                    }
                }
                assert_eq!(got, want, "{bits}-bit even modulus");
            }
        }
    }

    #[test]
    fn barrett_reduce_matches_division() {
        let mut r = rng(36);
        for bits in [8usize, 64, 300] {
            let mut m = gen_biguint_bits(&mut r, bits);
            m.set_bit(bits - 1, true);
            if m.is_one() {
                continue;
            }
            let ctx = BarrettCtx::new(&m);
            for _ in 0..20 {
                let x = &gen_biguint_below(&mut r, &m) * &gen_biguint_below(&mut r, &m);
                assert_eq!(ctx.reduce(&x), &x % &m);
            }
            // Boundary cases.
            assert_eq!(ctx.reduce(&BigUint::zero()), BigUint::zero());
            assert_eq!(ctx.reduce(&(&m - &BigUint::one())), &m - &BigUint::one());
        }
    }

    #[test]
    fn batch_mod_inverse_matches_per_element() {
        let mut r = rng(37);
        for (bits, odd) in [(256usize, true), (128, false)] {
            let mut m = gen_biguint_bits(&mut r, bits);
            m.set_bit(0, odd);
            m.set_bit(bits - 1, true);
            for k in [1usize, 2, 7, 33] {
                let values: Vec<BigUint> = (0..k).map(|_| gen_biguint_below(&mut r, &m)).collect();
                let per: Option<Vec<BigUint>> = values.iter().map(|v| mod_inverse(v, &m)).collect();
                assert_eq!(batch_mod_inverse(&values, &m), per, "{bits} bits, k={k}");
            }
        }
    }

    #[test]
    fn batch_mod_inverse_rejects_zero_and_shared_factor() {
        let m = b(1_000_000_007);
        let good = [b(2), b(3), b(5)];
        assert!(batch_mod_inverse(&good, &m).is_some());
        let with_zero = [b(2), b(0), b(5)];
        assert_eq!(batch_mod_inverse(&with_zero, &m), None);
        let composite = b(91); // 7 · 13
        let shared = [b(2), b(26), b(5)]; // gcd(26, 91) = 13
        assert_eq!(batch_mod_inverse(&shared, &composite), None);
    }

    #[test]
    fn batch_mod_inverse_edges() {
        let m = b(101);
        assert_eq!(batch_mod_inverse(&[], &m), Some(vec![]));
        assert_eq!(batch_mod_inverse(&[b(7)], &b(1)), Some(vec![b(0)]));
        let single = batch_mod_inverse(&[b(7)], &m).unwrap();
        assert_eq!(single, vec![mod_inverse(&b(7), &m).unwrap()]);
    }

    #[test]
    fn fermat_little_theorem_via_mod_pow() {
        // 2^61 - 1 is a Mersenne prime.
        let p = b((1u128 << 61) - 1);
        let mut r = rng(34);
        for _ in 0..5 {
            let a = gen_biguint_below(&mut r, &p);
            if a.is_zero() {
                continue;
            }
            assert_eq!(mod_pow(&a, &(&p - &b(1)), &p), BigUint::one());
        }
    }
}
